#ifndef VPART_OBS_TRACE_H_
#define VPART_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vpart {

/// How much instrumentation a request pays for.
///  - kOff:   no spans, no instant events (metrics counters stay on —
///            they are a handful of relaxed adds per request).
///  - kBasic: request-lifecycle spans (session, dispatch, solver phases,
///            batch lanes). The default; overhead is noise-level.
///  - kFull:  adds hot-path spans — B&B nodes/dives, LP solves and
///            refactorizations — for flame-chart depth at a few percent
///            cost. Required for the `--trace` deep dumps.
enum class ObsLevel { kOff = 0, kBasic = 1, kFull = 2 };

const char* ObsLevelName(ObsLevel level);
/// Parses "off"|"basic"|"full"; returns false on anything else.
bool ParseObsLevel(const std::string& text, ObsLevel* out);

/// One recorded trace event in Chrome Trace Event terms: a complete span
/// (phase 'X', with duration) or an instant event (phase 'i').
struct TraceEvent {
  std::string name;
  const char* category = "app";  // must point at a string literal
  char phase = 'X';
  int tid = 0;                  // tracer-assigned dense thread lane id
  int64_t start_us = 0;         // microseconds since the tracer's epoch
  int64_t dur_us = 0;           // 0 for instant events
  std::vector<std::pair<std::string, std::string>> args;
};

/// Copy of the flight recorder's contents at one instant.
struct TraceSnapshot {
  std::vector<TraceEvent> events;               // sorted by start_us
  std::vector<std::pair<int, std::string>> threads;  // (tid, name)
  long dropped = 0;  // events overwritten by the ring since the last Clear
};

/// Per-span-name aggregate, cheap enough to embed in every response.
struct TraceSummary {
  struct Row {
    std::string name;
    long count = 0;
    int64_t total_us = 0;
    int64_t max_us = 0;
  };
  std::vector<Row> rows;  // sorted by name
  long dropped = 0;
};

/// Flight recorder: spans and instant events land in per-thread ring
/// buffers (bounded memory per ring, oldest overwritten), so the last
/// moments of a hung or cancelled solve are always inspectable. Rings are
/// retained after their thread exits (fan-out threads come and go) and are
/// never dropped, not even by Clear(): the number of rings, and the work of
/// every Snapshot()/Summarize(), grows with every thread that ever recorded
/// an event or named its lane.
///
/// Thread-safety: Record*() from any thread; each ring has its own mutex so
/// writers on different threads never contend and snapshots are TSan-clean.
class Tracer {
 public:
  /// Events kept per thread before the ring wraps.
  static constexpr size_t kRingCapacity = 4096;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Process-wide recorder used by all built-in instrumentation.
  static Tracer& Global();

  /// Active level; Record*() below are no-ops under the requested level.
  ObsLevel level() const {
    return static_cast<ObsLevel>(level_.load(std::memory_order_relaxed));
  }
  void SetLevel(ObsLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  /// True when events tagged `at` should be recorded (level() >= at).
  bool Enabled(ObsLevel at) const {
    return level_.load(std::memory_order_relaxed) >= static_cast<int>(at);
  }

  /// Microseconds since this tracer was constructed (the trace epoch).
  int64_t NowMicros() const;

  /// Records a completed span on the calling thread's ring.
  void RecordComplete(std::string name, const char* category,
                      int64_t start_us, int64_t dur_us,
                      std::vector<std::pair<std::string, std::string>> args);
  /// Records an instant event (a point on the timeline, e.g. a log line).
  void RecordInstant(std::string name, const char* category,
                     std::vector<std::pair<std::string, std::string>> args);

  /// Names the calling thread's lane in trace exports ("advise-session").
  /// Registers the thread's ring even when it records nothing. Safe to
  /// call repeatedly; the latest name wins.
  void SetCurrentThreadName(const std::string& name);

  /// Full copy of all rings, sorted by start time. O(total events).
  TraceSnapshot Snapshot() const;
  /// Per-name aggregates without copying event payloads; this is what
  /// responses embed as telemetry.trace_summary.
  TraceSummary Summarize() const;

  /// Drops all recorded events (tests/benches). Every ring stays
  /// registered, so a live thread's cached ring keeps recording into a
  /// ring that later snapshots still see.
  void Clear();

  /// Opaque per-thread ring buffer (defined in trace.cc).
  struct Ring;

 private:
  Ring& RingForThisThread();

  const uint64_t id_;  // distinguishes tracer instances for the TLS cache
  std::atomic<int> level_{static_cast<int>(ObsLevel::kBasic)};
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Ring>> rings_;
  int next_tid_ = 1;
};

/// RAII span: construct at scope entry, destruct records the completed
/// event. When the tracer's level is below `at`, construction is one
/// relaxed atomic load and destruction does nothing.
class Span {
 public:
  Span(std::string name, const char* category,
       ObsLevel at = ObsLevel::kBasic, Tracer* tracer = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a key:value argument shown in trace viewers. No-op when the
  /// span is disabled.
  void AddArg(const std::string& key, std::string value);
  void AddArg(const std::string& key, long value);
  void AddArg(const std::string& key, double value);

  bool enabled() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;  // null when disabled
  std::string name_;
  const char* category_;
  int64_t start_us_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Sets the process-global observability level for the duration of a scope
/// and restores the previous level on exit. Requests use this to apply
/// their `obs` setting; concurrent requests at different levels see the
/// most recent writer (documented best-effort — the common concurrent case,
/// batch per-table solves, runs every lane at the same level).
class ScopedObsLevel {
 public:
  explicit ScopedObsLevel(ObsLevel level, Tracer* tracer = nullptr);
  ~ScopedObsLevel();
  ScopedObsLevel(const ScopedObsLevel&) = delete;
  ScopedObsLevel& operator=(const ScopedObsLevel&) = delete;

 private:
  Tracer* tracer_;
  ObsLevel previous_;
};

}  // namespace vpart

#endif  // VPART_OBS_TRACE_H_

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the perfbench driver: the run options, the outcome of
// one timed phase, statistics, process accounting and the benchmark's own
// span log. Nothing here calls into the library's obs layer, which is one
// of the layers being measured.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/json.h"

namespace perfbench {

using vpart::JsonValue;

/// Command-line settings of one benchmark process.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the fixed plan; the run never stops on a clock.
  int seconds = 10;
  /// Self-test plan: a few tiny requests per workload.
  bool tiny = false;
  /// Self-test hook: corrupts one expected answer so the correctness checks
  /// must report a failed request.
  bool inject_fault = false;
  /// Directory for sockets and scratch files, relative to the checkout.
  std::string run_dir;
  /// The `vpart_cli` binary the dist probe spawns its workers from.
  std::string worker_binary;
};

/// Seconds on the monotonic clock.
double Now();

/// Deterministic 64-bit mix of a seed and stream labels (splitmix64).
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Linearly interpolated percentile, `q` in [0, 100] (0 when empty).
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// User+system CPU seconds of this process.
double SelfCpuSeconds();
/// Peak resident set of this process, in MiB.
double SelfPeakRssMb();

/// Result of one timed phase: what the end-to-end metrics are computed
/// from, plus the work counters the fixed-work guard compares.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  // first few messages, for the log
  std::vector<double> latencies_s;
  /// Objective (4) of the returned advice and of the single-site layout,
  /// summed over the timed requests.
  double cost_total = 0.0;
  double single_site_total = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  /// Work counters that must repeat exactly for the same seed and plan.
  JsonValue work = JsonValue::MakeObject();
  /// Per-layer figures gathered during the timed phase (traced pass only
  /// reports them).
  std::map<std::string, double> layer;

  /// Records one request; `error` empty means every check passed.
  void Record(double latency_s, const std::string& error);
  void Fail(const std::string& error);
  void AddAdvice(double cost, double single_site_cost) {
    cost_total += cost;
    single_site_total += single_site_cost;
  }
  /// Reduction of the summed objective versus the single-site layout.
  double ReductionPercent() const {
    return single_site_total > 0
               ? 100.0 * (1.0 - cost_total / single_site_total)
               : 0.0;
  }
};

/// One span of the benchmark's own trace: a call from benchmark code into a
/// layer's public entry point. `request` groups the spans of one request
/// (-1 for standalone layer calls).
struct SpanRecord {
  long id = 0;
  long parent = -1;
  long request = -1;
  std::string layer;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span log, written out once at the end of the traced pass.
/// Thread-safe; a null SpanLog* means "untraced" everywhere it is accepted.
class SpanLog {
 public:
  long Open(const std::string& layer, const std::string& name, long parent,
            long request);
  void Close(long id);
  /// Self time per layer: each span's duration minus its children's.
  std::map<std::string, double> SelfSecondsByLayer() const;
  JsonValue ToJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& layer, const std::string& name,
             long parent = -1, long request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  long id() const { return id_; }

 private:
  SpanLog* log_;
  long id_ = -1;
};

/// Runs `call` `reps` times, each inside a span of `layer`.`name`, and
/// returns the median duration in seconds.
double TimeCalls(SpanLog* log, long parent, const std::string& layer,
                 const std::string& name, int reps,
                 const std::function<void()>& call);

/// Reads a numeric member (`fallback` when absent or not a number).
double NumberAt(const JsonValue& object, const char* key,
                double fallback = 0.0);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

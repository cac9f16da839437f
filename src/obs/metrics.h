#ifndef VPART_OBS_METRICS_H_
#define VPART_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vpart {

/// Number of per-thread cells a counter/histogram is sharded across. Hot
/// paths pay one relaxed fetch_add on their own shard; snapshots sum all
/// shards. 16 cache lines per counter keeps contention negligible for the
/// thread counts this codebase runs (well below 16 on CI).
inline constexpr int kMetricShards = 16;

namespace internal {
/// Stable per-thread shard index in [0, kMetricShards), assigned
/// round-robin at first touch so a thread's updates stay on one cache line.
unsigned MetricShardIndex();
}  // namespace internal

/// Monotonic counter, sharded to keep concurrent increments off a single
/// cache line. Values never decrease; Reset() is registry-wide and only for
/// benchmarks/tests.
class Counter {
 public:
  void Add(long delta) {
    cells_[internal::MetricShardIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  long Value() const;

 private:
  friend class MetricsRegistry;
  struct alignas(64) Cell {
    std::atomic<long> value{0};
  };
  Cell cells_[kMetricShards];
};

/// Last-write-wins instantaneous value (e.g. in-flight requests via
/// Add(+1)/Add(-1)). A single atomic: gauges are not hot-path metrics.
class Gauge {
 public:
  void Set(double value) { bits_.store(Encode(value), std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return Decode(bits_.load(std::memory_order_relaxed)); }

 private:
  friend class MetricsRegistry;
  static uint64_t Encode(double value);
  static double Decode(uint64_t bits);
  std::atomic<uint64_t> bits_{0};  // bit pattern of 0.0
};

/// Fixed-bucket histogram with Prometheus semantics: `bounds` are the
/// inclusive upper edges of the non-infinite buckets; an implicit +Inf
/// bucket catches the rest. Observations are sharded like counters; the
/// running sum is kept per shard in integer nanounits to stay lock-free.
class Histogram {
 public:
  void Observe(double value);

  /// Upper bucket edges (excluding +Inf), as configured at registration.
  const std::vector<double>& bounds() const { return bounds_; }

  /// Cumulative count of observations <= bounds()[i]; index bounds().size()
  /// is the +Inf bucket (== Count()).
  std::vector<long> CumulativeCounts() const;
  long Count() const;
  double Sum() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  struct alignas(64) Cell {
    // One slot per non-Inf bucket plus the +Inf bucket, laid out flat in
    // the owning histogram (cells only hold the atomics).
    std::atomic<long>* buckets = nullptr;
    std::atomic<long> count{0};
    std::atomic<long> sum_nano{0};
  };
  std::vector<double> bounds_;
  std::vector<std::atomic<long>> bucket_storage_;
  Cell cells_[kMetricShards];
};

/// Point-in-time view of every registered metric, safe to serialize while
/// updates continue (each scalar is read atomically; cross-metric skew is
/// acceptable telemetry semantics).
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::string help;
    long value = 0;
  };
  struct GaugeSample {
    std::string name;
    std::string help;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    std::string help;
    std::vector<double> bounds;       // upper edges, excluding +Inf
    std::vector<long> cumulative;     // size bounds.size()+1, last == count
    long count = 0;
    double sum = 0.0;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Registry of named metrics. Get* registers on first use and returns a
/// stable reference (metrics are never destroyed before the registry, and
/// the global registry leaks deliberately so instrumented code can run
/// during static destruction). Names follow Prometheus conventions
/// (`vpart_*_total` for counters).
///
/// Thread-safety: Get* takes a mutex (call once, cache the reference —
/// function-local statics are the idiom on hot paths); metric updates are
/// lock-free; Snapshot()/Reset() may run concurrently with updates.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry used by all built-in instrumentation.
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  /// `bounds` must be strictly increasing upper edges; ignored (the first
  /// registration wins) when the histogram already exists.
  Histogram& GetHistogram(const std::string& name, std::vector<double> bounds,
                          const std::string& help = "");

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (benchmark/test isolation; metrics keep
  /// their registration and references stay valid).
  void Reset();

 private:
  template <typename T>
  struct Entry {
    std::string help;
    std::unique_ptr<T> metric;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

/// Default latency bucket edges in seconds (sub-ms through minutes), shared
/// by the advise/LP duration histograms so dashboards line up.
std::vector<double> DefaultLatencyBounds();

}  // namespace vpart

#endif  // VPART_OBS_METRICS_H_

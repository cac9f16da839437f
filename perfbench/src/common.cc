#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + a * 0xbf58476d1ce4e5b9ull +
               b * 0x94d049bb133111ebull + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Outcome::Record(double latency_s, const std::string& error) {
  ++attempted;
  latencies_s.push_back(latency_s);
  if (!error.empty()) Fail(error);
}

void Outcome::Fail(const std::string& error) {
  ++failed;
  if (failures.size() < 8) failures.push_back(error);
}

long SpanLog::Open(const std::string& layer, const std::string& name,
                   long parent, long request) {
  SpanRecord span;
  span.parent = parent;
  span.request = request;
  span.layer = layer;
  span.name = name;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<long>(spans_.size());
  span.start_s = Now();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::Close(long id) {
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = end;
}

std::map<std::string, double> SpanLog::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_seconds[static_cast<size_t>(span.parent)] +=
          span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans_) {
    const double own = span.end_s - span.start_s -
                       child_seconds[static_cast<size_t>(span.id)];
    self[span.layer] += std::max(0.0, own);
  }
  return self;
}

JsonValue SpanLog::ToJson() const {
  JsonValue spans = JsonValue::MakeArray();
  double origin = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!spans_.empty()) origin = spans_.front().start_s;
    for (const SpanRecord& span : spans_) {
      JsonValue out = JsonValue::MakeObject();
      out.Set("id", span.id);
      out.Set("parent", span.parent);
      out.Set("request", span.request);
      out.Set("layer", span.layer);
      out.Set("name", span.name);
      out.Set("start_us", (span.start_s - origin) * 1e6);
      out.Set("end_us", (span.end_s - origin) * 1e6);
      spans.Append(std::move(out));
    }
  }
  JsonValue self = JsonValue::MakeObject();
  for (const auto& [layer, seconds] : SelfSecondsByLayer()) {
    self.Set(layer, seconds);
  }
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("self_seconds_by_layer", std::move(self));
  doc.Set("spans", std::move(spans));
  return doc;
}

ScopedSpan::ScopedSpan(SpanLog* log, const std::string& layer,
                       const std::string& name, long parent, long request)
    : log_(log) {
  if (log_ != nullptr) id_ = log_->Open(layer, name, parent, request);
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->Close(id_);
}

double TimeCalls(SpanLog* log, long parent, const std::string& layer,
                 const std::string& name, int reps,
                 const std::function<void()>& call) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan span(log, layer, name, parent);
    const double start = Now();
    call();
    seconds.push_back(Now() - start);
  }
  return Median(std::move(seconds));
}

double NumberAt(const JsonValue& object, const char* key, double fallback) {
  const JsonValue* value = object.is_object() ? object.Find(key) : nullptr;
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

}  // namespace perfbench

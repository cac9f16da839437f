#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/advise.h"
#include "common.h"
#include "util/status.h"
#include "workload/instance.h"

namespace perfbench {

/// One closed-loop workload. A benchmark process runs exactly one of them,
/// in one of three phases (see main.cc):
///  - set-up:  Prepare, ComputeReferences, StartUp;
///  - run:     Prepare, LoadReferences, StartUp, RunTimed;
///  - trace:   as run, with spans, then ProbeLayers.
/// Every phase is a fresh process, so no run inherits tracer rings, caches
/// or pools from an earlier one.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generates the seed-derived inputs and the fixed request plan.
  virtual vpart::Status Prepare() = 0;
  /// Reference answers the timed phase is checked against. Computed only
  /// in set-up processes; the run process loads them from the first one.
  virtual vpart::StatusOr<vpart::JsonValue> ComputeReferences() {
    return vpart::JsonValue::MakeObject();
  }
  virtual vpart::Status LoadReferences(const vpart::JsonValue& /*refs*/) {
    return vpart::Status::Ok();
  }
  /// Server or worker start-up (waiting on events), cache priming and one
  /// untimed warm-up request.
  virtual vpart::Status StartUp() = 0;
  /// The timed phase. `spans` is null in the untraced run.
  virtual void RunTimed(SpanLog* spans, Outcome* out) = 0;
  /// Traced run only, after RunTimed: standalone calls into each layer on
  /// this workload's inputs, outside the timed requests.
  virtual void ProbeLayers(SpanLog& spans, Outcome* out) = 0;
};

std::unique_ptr<Workload> MakeProofWorkload(const Options& options);
std::unique_ptr<Workload> MakeDaemonWorkload(const Options& options);
std::unique_ptr<Workload> MakeBatchWorkload(const Options& options);

// ---------------------------------------------------------------------------
// Standalone layer calls shared by the workloads (layers.cc).

/// A request-sized input with an answer to it.
struct ProbeInput {
  std::shared_ptr<const vpart::Instance> instance;
  vpart::AdviseRequest request;
  vpart::AdviseResponse response;
};

/// Times the entry points one advise request crosses: instance and request
/// parsing, fingerprint, cache lookup and remap, grouping, cost-model build,
/// the ilp warm-start anneal, certification, response encode/decode, wire
/// framing, the dist job and result codecs. Medians over `inputs` go into
/// `out->layer` (`*_us`, `*_ms`, `*_bytes` keys) and calls that fail into
/// `out`'s failures; the figures of each input are returned under the same
/// keys.
std::vector<std::map<std::string, double>> ProbeRequestLayers(
    const std::vector<ProbeInput>& inputs, SpanLog& spans, long parent,
    Outcome* out);

/// Per-table SA answers of `instance` at 3 sites (one table thread), for
/// ProbeEngineLayers on workloads that never split a schema themselves.
std::vector<vpart::AdvisorResult> SaTableAnswers(
    const vpart::Instance& instance, Outcome* out);

/// Times SplitInstanceByTable and MergeTableAdvice on one whole schema and
/// its per-table answers.
void ProbeEngineLayers(const vpart::Instance& instance,
                       const std::vector<vpart::AdvisorResult>& table_results,
                       int num_sites, SpanLog& spans, long parent,
                       Outcome* out);

/// The obs layer at the process's end state: tracer rings, and the cost
/// and size of the metrics + trace-summary snapshot every reply carries.
void ProbeObsEndState(SpanLog& spans, long parent,
                      std::map<std::string, double>* layer);

/// Per-layer figures of the solver core taken from advise responses: lp
/// pivots, factorizations and busy time, B&B nodes.
void AddSolveCounters(const vpart::AdviseResponse& response,
                      std::map<std::string, double>* layer);

/// Sets each named metric to 0: the layer does no work on this workload.
void MarkIdle(std::map<std::string, double>* layer,
              const std::vector<std::string>& names);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

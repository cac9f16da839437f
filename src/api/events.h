#ifndef VPART_API_EVENTS_H_
#define VPART_API_EVENTS_H_

#include <functional>
#include <string>

#include "cost/partitioning.h"
#include "lp/solve_stats.h"

namespace vpart {

/// One tick of a running solve. Events form a stream ordered by `seq`
/// within a request; consumers must treat them as advisory telemetry (the
/// final answer is the AdviseResponse, not the last event).
///
/// Delivery contract: callbacks are invoked synchronously from whichever
/// solver thread produced the event — a portfolio lane, a branch & bound
/// worker, the thread that called AdviseWithHooks. Handlers must be
/// thread-safe and cheap; a slow handler stalls the solve that called it.
/// vpart_cli and the daemon record the stream with a ProgressRecorder
/// (api/advise.h), capped at 4,096 events that always end with "done".
struct ProgressEvent {
  /// Emitting stage: "sa", "ilp", "incremental", "exhaustive", "portfolio",
  /// or "done" (the request's terminal event).
  std::string phase;
  /// Monotonic position in the request's event stream, assigned centrally
  /// by AdviseWithHooks: unique and dense (0..N-1) per request, with the
  /// terminal "done" event carrying the largest value. Delivery order may
  /// interleave across solver threads — consumers order by `seq`, not by
  /// arrival.
  long seq = 0;
  /// Seconds since the solve started.
  double elapsed = 0.0;
  /// Objective (4) of the best incumbent so far; +inf before the first.
  double best_cost = 0.0;
  /// Best proven lower bound in scalarized (eq. 6) space; -inf when the
  /// emitting stage proves nothing (heuristics).
  double bound = 0.0;
  /// Relative gap in percent between incumbent and bound; 100 when unknown.
  double gap = 100.0;
  /// Stage-specific counter: B&B nodes, SA restarts, incremental rounds,
  /// portfolio incumbent publications.
  long detail = 0;
  /// Node-LP telemetry accumulated so far (warm/cold starts, pivot mix);
  /// all-zero for stages that solve no LPs (SA, exhaustive, incremental).
  /// The terminal "done" event carries the whole solve's totals.
  LpSolveStats lp;
};

/// A new best solution, streamed as soon as any stage finds one. The
/// partitioning is in the *solve* space: when attribute grouping reduced
/// the instance, incumbents are over the reduced attributes (the final
/// response expands them; streaming consumers mostly want the cost curve).
struct IncumbentEvent {
  Partitioning partitioning;
  double cost = 0.0;        // objective (4)
  double scalarized = 0.0;  // objective (6), the comparison metric
  /// Producing stage ("sa", "ilp", "incremental", portfolio lane name).
  std::string source;
  double elapsed = 0.0;
};

using ProgressCallback = std::function<void(const ProgressEvent&)>;
using IncumbentCallback = std::function<void(const IncumbentEvent&)>;

}  // namespace vpart

#endif  // VPART_API_EVENTS_H_

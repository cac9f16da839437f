#ifndef VPART_MIP_BRANCH_AND_BOUND_H_
#define VPART_MIP_BRANCH_AND_BOUND_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/solve_stats.h"

namespace vpart {

enum class MipStatus {
  kOptimal,     // proved within the requested gap
  kFeasible,    // limit hit with an incumbent (paper: "(cost)" cells)
  kInfeasible,  // proved infeasible
  kNoSolution,  // limit hit with no incumbent (paper: "t/o" cells)
};

const char* MipStatusName(MipStatus status);

/// Snapshot streamed to MipOptions::progress while the tree search runs.
struct MipProgress {
  long nodes = 0;
  bool has_incumbent = false;
  /// Incumbent objective; meaningless unless has_incumbent.
  double incumbent_objective = 0.0;
  /// Best proven lower bound so far (minimization).
  double best_bound = -kLpInfinity;
  double seconds = 0.0;
  /// Non-empty exactly when this event announces a NEW incumbent: the full
  /// variable assignment (already integer-rounded and feasibility-checked),
  /// copied so the callback owns it. Periodic ticks leave it empty.
  std::vector<double> incumbent_values;
  /// Node-LP telemetry accumulated so far (warm/cold starts, pivot counts).
  LpSolveStats lp_stats;
};

struct MipOptions {
  /// Wall-clock limit; <= 0 means unlimited. The paper ran GLPK with a
  /// 30-minute bound; our benches default much lower (see DESIGN.md).
  double time_limit_seconds = 30.0;
  /// Stop when (incumbent - bound) / |incumbent| falls below this. The
  /// paper used an "MIP tolerance gap of 0.1%".
  double relative_gap = 0.001;
  /// Node limit; <= 0 means unlimited.
  long max_nodes = -1;
  double integrality_tol = 1e-6;
  SimplexOptions lp_options;
  /// Carry each parent node's optimal basis into its children and
  /// reoptimize with the dual simplex instead of re-running the two-phase
  /// primal from a cold start (see lp/simplex.h). The fallback ladder —
  /// dual reoptimize, cold primal, cold primal with tight refactorization —
  /// makes this safe to leave on; disable only to measure the cold
  /// baseline (TpccGoldenTest.IlpWarmStartProvesTheSameOptimumInHalfThePivots
  /// does).
  bool use_warm_start = true;
  /// Optional warm-start incumbent (full variable assignment). Checked for
  /// feasibility; ignored if infeasible.
  const std::vector<double>* initial_solution = nullptr;
  /// Optional seed basis for the ROOT relaxation — typically the terminal
  /// root basis of a previous solve over a same-shaped model (cross-request
  /// warm start). Purely a heuristic: it rides the same fallback ladder as
  /// parent-basis warm starts, so a stale or mismatched basis costs one
  /// failed load/reoptimize and the root falls back to a cold solve.
  /// Requires use_warm_start; ignored when null.
  std::shared_ptr<const Basis> root_basis;
  /// Run a rounding dive (fix the most-decided fractional, re-solve) at the
  /// root and periodically until an incumbent exists. Cheap primal
  /// heuristic standing in for the ones inside industrial solvers.
  bool enable_dive = true;
  /// Tree-search workers, each with its own simplex engine. 1 searches
  /// depth-first on the caller's thread and starts no thread; > 1 runs
  /// that many workers (the caller's thread plus num_threads − 1) over one
  /// best-first open set with a shared incumbent. The proven objective
  /// value is thread-count-independent (see DESIGN.md's determinism
  /// contract).
  int num_threads = 1;
  /// Externally shared incumbent objective (e.g. a racing SA solver's best,
  /// in the model's own objective space). Nodes whose relaxation cannot
  /// beat this value within `relative_gap` are pruned even before the tree
  /// search finds its own incumbent. Ignored when null.
  const std::atomic<double>* external_upper_bound = nullptr;
  /// Cooperative cancellation: the search stops (like a deadline) once the
  /// flag is true. Ignored when null.
  const std::atomic<bool>* cancel_flag = nullptr;
  /// Progress stream: called on every new incumbent (with the assignment)
  /// and every `progress_node_interval` processed nodes (without). With
  /// num_threads > 1 the callback runs on whichever worker produced the
  /// event, outside the search lock — it must be thread-safe and cheap.
  /// An exception it throws stops every worker and reaches the caller.
  std::function<void(const MipProgress&)> progress;
  long progress_node_interval = 256;
};

/// What a tree search establishes beyond its incumbent. One record carries
/// it from MipResult up to the advise layer (IlpSolveResult, PortfolioLane,
/// PortfolioResult, SolverRun), where AdviseResponse flattens it.
struct SearchProof {
  /// Nodes processed.
  long nodes = 0;
  /// Node- and dive-LP telemetry: warm vs cold starts, pivot mix,
  /// factorizations, LP wall clock (see lp/solve_stats.h).
  LpSolveStats lp_stats;
  /// Best proven lower bound (minimization).
  double best_bound = -kLpInfinity;
  /// The tree was searched to exhaustion (no deadline/node/cancel stop and
  /// no LP failure dropped a node). Together with `pruned_by_external_bound`
  /// this lets a portfolio conclude global optimality: an exhausted search
  /// proves nothing beats min(own incumbent, external bound) within the gap.
  bool search_exhausted = false;
  /// Some node was pruned only thanks to `external_upper_bound` (a tighter
  /// bound than the search's own incumbent). When true, kInfeasible means
  /// "nothing better than the external bound", not literal infeasibility.
  bool pruned_by_external_bound = false;
  /// Optimal basis of the root relaxation (null when the root LP did not
  /// reach optimality or warm starting was off). Feed it to a later solve's
  /// MipOptions::root_basis to skip the cold two-phase primal at its root.
  std::shared_ptr<const Basis> root_basis;
};

struct MipResult {
  MipStatus status = MipStatus::kNoSolution;
  /// Incumbent objective (valid unless status is kInfeasible/kNoSolution).
  double objective = 0.0;
  std::vector<double> values;
  double seconds = 0.0;
  SearchProof proof;

  bool has_incumbent() const {
    return status == MipStatus::kOptimal || status == MipStatus::kFeasible;
  }
};

/// (incumbent − bound) / |incumbent| in percent, floored at 0; 100 when
/// either side is not finite.
double GapPercent(double incumbent, double bound);

/// Solves min c·x over `model` with branch & bound on the most fractional
/// binary. Each worker reoptimizes a node's LP with the dual simplex from
/// its parent's basis (cold two-phase primal as the fallback), dives for an
/// incumbent at the root, and tracks the best bound for the gap criterion.
/// One worker plunges depth-first; several search best-first (see
/// MipOptions::num_threads).
MipResult SolveMip(const LpModel& model, const MipOptions& options = {});

}  // namespace vpart

#endif  // VPART_MIP_BRANCH_AND_BOUND_H_

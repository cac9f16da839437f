#ifndef VPART_API_SOLVER_REGISTRY_H_
#define VPART_API_SOLVER_REGISTRY_H_

#include <array>
#include <string>
#include <vector>

#include "api/advise.h"
#include "api/events.h"
#include "cost/cost_coefficients.h"
#include "mip/branch_and_bound.h"
#include "util/deadline.h"
#include "util/status.h"

namespace vpart {

/// Everything a solver needs from its caller beyond the request: unified
/// cancellation/deadline plumbing and the event stream. All fields may be
/// default (never-cancelled token, null callbacks).
struct SolveContext {
  /// Shared cancel flag + deadline. Solvers must poll it (directly or via
  /// flag()) and return their best incumbent promptly once it fires.
  CancellationToken token;
  ProgressCallback progress;
  IncumbentCallback incumbent;
};

/// Raw solver output in the solve (possibly attribute-grouped) space; the
/// advise orchestrator expands, validates, and prices it.
struct SolverRun {
  Partitioning partitioning;
  /// Detail label for AdvisorResult::algorithm_used ("ilp(timeout)->sa",
  /// "portfolio(sa)", ...). Defaults to the solver name when empty.
  std::string algorithm;
  bool proven_optimal = false;
  /// Proof record of the branch & bound behind a proven_optimal claim (the
  /// ilp solver, the portfolio's ILP lane). Its
  /// best_bound is in scalarized (eq. 6) space of the solve instance and
  /// stays -inf for solvers that prove optimality without a bound
  /// (exhaustive enumeration only sets search_exhausted) or don't prove it
  /// at all. AdviseResponse flattens it; the SolutionCertifier's bound
  /// audit cross-checks it against the incumbent, and the serve layer
  /// caches its root basis.
  SearchProof proof;
};

/// One built-in solver. `solve` is called with the cost model of the
/// (already reduced) instance, reads its own option block from the
/// request, and must honor ctx.token.
struct SolverEntry {
  const char* name;
  /// Prices the Appendix-A latency term in its objective. Solvers without
  /// it still run under latency_penalty > 0 but optimize the base
  /// objective and only report the exposure of their result.
  bool prices_latency;
  StatusOr<SolverRun> (*solve)(const CostCoefficients& cost_model,
                               const AdviseRequest& request,
                               const SolveContext& ctx);
};

/// The five built-in solvers, sorted by name (the order --help and the
/// unknown-solver errors list them in).
extern const std::array<SolverEntry, 5> kSolvers;

/// The row named `name`; null for unknown names (and for "auto", which is
/// a policy, not a solver).
const SolverEntry* FindSolver(const std::string& name);

/// kSolvers' names, in table order.
std::vector<std::string> SolverNames();

/// Resolves request.solver to a solver name. Non-"auto" names are
/// validated against the table. "auto" picks the portfolio when the
/// request grants threads (the ILP's parallel branch & bound, with a
/// warning, when latency_penalty needs the Appendix-A term the portfolio
/// does not price), enumeration for tiny instances unless latency_penalty
/// is set, the ILP while its linearization stays small, SA otherwise. A
/// solver that does not price a requested latency_penalty adds a warning.
/// `instance` is the instance that will actually be solved (after any
/// attribute grouping).
StatusOr<std::string> ResolveSolver(const Instance& instance,
                                    const AdviseRequest& request,
                                    std::vector<std::string>* warnings);

/// Solver names.
inline constexpr const char* kSolverAuto = "auto";
inline constexpr const char* kSolverIlp = "ilp";
inline constexpr const char* kSolverSa = "sa";
inline constexpr const char* kSolverExhaustive = "exhaustive";
inline constexpr const char* kSolverIncremental = "incremental";
inline constexpr const char* kSolverPortfolio = "portfolio";

}  // namespace vpart

#endif  // VPART_API_SOLVER_REGISTRY_H_

#ifndef VPART_ENGINE_PORTFOLIO_H_
#define VPART_ENGINE_PORTFOLIO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/audit.h"
#include "cost/cost_coefficients.h"
#include "mip/branch_and_bound.h"
#include "util/deadline.h"
#include "util/status.h"

namespace vpart {

/// Races the repo's solvers concurrently on one instance: the linearized
/// ILP (branch & bound), restart-sliced simulated annealing, and the §4
/// incremental heuristic. The lanes share their best incumbent through an
/// atomic bound in scalarized-objective (eq. 6) space, so the branch &
/// bound prunes against SA's solutions while SA warm-starts from whatever
/// lane currently leads. Returns as soon as optimality is proven, or the
/// best solution found at the deadline.
struct PortfolioOptions {
  int num_sites = 2;
  bool allow_replication = true;
  /// Whole-race wall clock. Lanes slice whatever remains of it.
  double time_limit_seconds = 5.0;
  /// B&B gap; also the tolerance of the optimality proof the portfolio
  /// reports (proven means: nothing beats the winner by more than this).
  double relative_gap = 0.001;
  uint64_t seed = 1;
  /// Threads for the lanes; 0 = DefaultThreadCount(). Lanes start in the
  /// order ilp, incremental, sa, the first on the caller's thread: with 1
  /// thread all three run in that order on the caller, with 2 the ILP runs
  /// on the caller while the other thread runs incremental, then SA, and
  /// with 3 or more they all race. With 1 thread the ILP gets the race
  /// budget less a quarter per heuristic lane, the incremental lane a
  /// quarter, and SA, which runs last, the rest of the race.
  int num_threads = 0;
  /// Workers inside the ILP lane's branch & bound (MipOptions.num_threads).
  /// 0 derives max(1, num_threads / 2).
  int bnb_threads = 0;
  /// SA re-anneal slice length; each slice publishes into the shared bound
  /// and warm-starts from the current leader.
  double sa_slice_seconds = 0.5;
  bool run_ilp = true;
  bool run_sa = true;
  bool run_incremental = true;
  /// LP invariant-audit level of the ILP lane's node LPs (check/audit.h);
  /// failures surface in proof.lp_stats.audit_failures.
  AuditLevel lp_audit = AuditLevel::kOff;
  /// Externally owned race token. When set, the race uses it directly (its
  /// deadline replaces time_limit_seconds), so Cancel() on the caller's
  /// copy stops every lane; the race itself cancels it once the ILP proof
  /// completes (lanes past that point are wasted work for everyone).
  const CancellationToken* cancel_token = nullptr;
  /// Shared-incumbent hook: called whenever a lane takes the lead, with
  /// the lane's name and the new leader. Invoked on the lane's thread right
  /// after publication (outside the incumbent mutex, so a burst of offers
  /// may deliver slightly out of order); must be thread-safe.
  std::function<void(const Partitioning& partitioning, double scalarized,
                     double cost, const std::string& lane, double elapsed)>
      on_incumbent;
  /// Cross-request seeds (see api/advise.h WarmSeed). The incumbent — in
  /// the SOLVE instance's attribute space — is published into the shared
  /// incumbent before any lane starts (after the usual validation, so a
  /// stale seed is silently dropped), letting every lane warm-start/prune
  /// from it. The basis seeds the ILP lane's root relaxation
  /// (MipOptions::root_basis). Both are heuristics; null means cold.
  std::shared_ptr<const Partitioning> initial_incumbent;
  std::shared_ptr<const Basis> root_basis;
};

/// Per-lane telemetry of one race.
struct PortfolioLane {
  std::string name;
  bool has_solution = false;
  double cost = 0.0;        // objective (4)
  double scalarized = 0.0;  // objective (6), the race metric
  double seconds = 0.0;     // lane wall clock (may end early on cancel)
  /// ILP lane only: its branch & bound's proof record.
  SearchProof proof;
};

struct PortfolioResult {
  Partitioning partitioning;
  double cost = 0.0;
  double scalarized = 0.0;
  /// Lane that produced the winning solution ("ilp", "sa", "incremental").
  std::string winner;
  /// The ILP lane finished its proof: no solution beats `scalarized` by
  /// more than `relative_gap` (regardless of which lane found the winner).
  bool proven_optimal = false;
  double seconds = 0.0;
  std::vector<PortfolioLane> lanes;
  /// The ILP lane's proof record (empty when the lane did not run), so
  /// callers need not scan `lanes`. Its root basis is cached by the serve
  /// layer to seed future same-shaped races.
  SearchProof proof;
};

StatusOr<PortfolioResult> SolvePortfolio(const CostCoefficients& cost_model,
                                         const PortfolioOptions& options);

}  // namespace vpart

#endif  // VPART_ENGINE_PORTFOLIO_H_

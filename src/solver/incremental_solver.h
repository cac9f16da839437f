#ifndef VPART_SOLVER_INCREMENTAL_SOLVER_H_
#define VPART_SOLVER_INCREMENTAL_SOLVER_H_

#include "cost/cost_coefficients.h"
#include "solver/sa_solver.h"

namespace vpart {

/// §4's 20/80 idea: "assuming that transactions follow the 20/80 rule, the
/// problem can be solved iteratively over T starting with a small set of
/// the most heavy transactions."
///
/// Implementation: transactions are ranked by their workload weight
/// (Σ over their queries of Σ_a W_{a,q}); the heaviest `initial_fraction`
/// are annealed on their own sub-instance, the remaining transactions are
/// folded in by batches — each placed on its cheapest feasible site, with a
/// short re-anneal after every batch seeded from the current solution.
/// Snapshot streamed to IncrementalOptions::progress after the heavy-prefix
/// anneal (round 0) and after each fold-in batch.
struct IncrementalProgress {
  int round = 0;
  /// Transactions covered by the solution so far, of `total`.
  int covered = 0;
  int total = 0;
  /// Objective (6) of the current (prefix) solution.
  double best_scalarized = 0.0;
  double seconds = 0.0;
};

struct IncrementalOptions {
  double initial_fraction = 0.20;
  int batches = 4;
  /// Inner anneal settings. `sa.time_limit_seconds` budgets the whole
  /// solve, every anneal taking what is left of it. A spent budget or
  /// `sa.cancel_flag` also stops the fold-in loop: remaining transactions
  /// are placed greedily (no re-anneal) so a full, feasible solution still
  /// comes back promptly.
  SaOptions sa;
  std::function<void(const IncrementalProgress&)> progress;
};

/// Returns a solution for the full instance behind `cost_model`.
SaResult SolveIncrementally(const CostCoefficients& cost_model, int num_sites,
                            const IncrementalOptions& options = {});

/// Ranks transactions by total weight, heaviest first (exposed for tests).
std::vector<int> RankTransactionsByWeight(const Instance& instance);

}  // namespace vpart

#endif  // VPART_SOLVER_INCREMENTAL_SOLVER_H_

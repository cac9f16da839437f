#ifndef VPART_MIP_FRONTIER_H_
#define VPART_MIP_FRONTIER_H_

#include <memory>
#include <vector>

#include "mip/branch_and_bound.h"

namespace vpart {

/// Frontier expansion for distributed subtree solving (src/dist/): the
/// same search core as SolveMip, run best-first on one worker until the
/// open set holds `target_units` nodes, which it then hands off as
/// self-contained work units. Each unit is a subtree root described by the
/// branching fixings that reach it — a set of per-column bound tightenings
/// over the original model — plus its parent's LP bound and optimal basis,
/// so a worker process can reconstruct the node exactly: apply the fixings
/// to its own copy of the model (LpModel::SetVariableBounds), seed the root
/// relaxation with the shipped basis (MipOptions::root_basis — the same
/// warm-start ladder in-tree children ride), and search the subtree to
/// exhaustion. The union of the emitted subtrees covers the remaining
/// search space, so global optimality follows from every unit reporting
/// search_exhausted plus a clean expansion (see DistCoordinator's proof
/// aggregation contract in DESIGN.md).

/// One branching fixing: variable `column` is restricted to
/// [lower, upper] (already intersected with the model's own bounds).
struct BoundFix {
  int column = -1;
  double lower = 0.0;
  double upper = 0.0;
};

/// One shippable subtree root.
struct FrontierUnit {
  long id = 0;
  /// LP bound inherited from the parent node: a valid lower bound on every
  /// solution inside this subtree. -kLpInfinity when the parent relaxation
  /// was never solved (an unexpanded root under a tiny deadline).
  double bound = -kLpInfinity;
  std::vector<BoundFix> fixings;
  /// Parent node's optimal basis (null when warm starting was off or the
  /// snapshot was unavailable); siblings share one snapshot.
  std::shared_ptr<const Basis> basis;
};

struct FrontierExpansion {
  /// What the expansion itself established: nodes/LP telemetry, the root
  /// relaxation's bound and basis, and any incumbent found along the way
  /// (initial_solution, the root dive, integral relaxations). When `units`
  /// is empty the expansion solved or closed the whole tree and `root` is a
  /// complete MipResult with the usual proof flags; otherwise root.status
  /// is at most kFeasible and the proof is delegated to the units.
  MipResult root;
  std::vector<FrontierUnit> units;
  /// No subtree was silently dropped (LP failures) during expansion. Global
  /// optimality claims require `clean` in addition to every unit's own
  /// search_exhausted flag.
  bool clean = true;
};

/// Expands the tree best-first until `target_units` nodes are open (or the
/// tree is exhausted / a limit from `options` fires), then exports the open
/// nodes that the incumbent does not already close. Honors every
/// MipOptions field SolveMip does — enable_dive included — except
/// num_threads: the expansion runs one worker on the caller's thread.
FrontierExpansion ExpandFrontier(const LpModel& model,
                                 const MipOptions& options, int target_units);

}  // namespace vpart

#endif  // VPART_MIP_FRONTIER_H_

#ifndef VPART_SOLVER_SA_SOLVER_H_
#define VPART_SOLVER_SA_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "cost/cost_coefficients.h"

namespace vpart {

/// Derives the optimal attribute placement for the fixed transaction
/// assignment in `p` (the SA solver's findSolution with x fixed). For the
/// λ-weighted cost part of eq. (6) this is exact: the objective separates
/// per (attribute, site) with marginal κ(a,s) = c2(a) + Σ_{t on s} c1(a,t);
/// y must cover the forced co-location sites, gains every negative-κ
/// replica, and otherwise takes the cheapest single site.
///
/// With `allow_replication == false` an attribute whose readers span
/// multiple sites makes the x assignment infeasible; returns false then,
/// leaving y partly derived.
bool ComputeOptimalY(const CostCoefficients& cost_model, Partitioning& p,
                     bool allow_replication = true);

/// ComputeOptimalY's scratch buffers. A caller that derives y many times
/// (the SA loop, the exhaustive enumerator) keeps one and passes it to
/// every call, so the calls allocate nothing once the buffers have grown.
/// It holds no state between calls, but two concurrent calls must not
/// share one: each solve owns its own.
struct OptimalYWorkspace {
  std::vector<double> kappa;     // κ(a,s), attribute-major
  std::vector<uint64_t> forced;  // per site: the attributes its readers read
};

/// ComputeOptimalY on the caller's workspace; same result.
bool ComputeOptimalY(const CostCoefficients& cost_model, Partitioning& p,
                     bool allow_replication, OptimalYWorkspace& workspace);

/// Re-assigns every transaction to its cheapest feasible site for the fixed
/// attribute placement in `p` (findSolution with y fixed). A transaction
/// with no covering site is repaired by extending y on its cheapest site
/// (allowed: SA's y-neighborhood only ever adds replicas); with
/// `allow_replication == false` repair is impossible and the function
/// returns false instead.
bool ComputeOptimalX(const CostCoefficients& cost_model, Partitioning& p,
                     bool allow_replication = true);

/// Snapshot streamed to SaOptions::progress after every completed anneal
/// (the initial one and each restart).
struct SaProgress {
  /// 0 for the initial anneal, then 1, 2, ... per restart.
  int restart = 0;
  double best_cost = 0.0;        // objective (4) of the best so far
  double best_scalarized = 0.0;  // objective (6) of the best so far
  /// Global best at this point; valid only during the callback.
  const Partitioning* best = nullptr;
  double seconds = 0.0;
};

/// Parameters of Algorithm 1 (§3, §5.1). Defaults follow the paper where it
/// specifies values (10% neighborhood, 50% initial acceptance of 5%-worse
/// solutions) and sensible choices where it does not (L, ρ, freezing).
struct SaOptions {
  /// §5.1: initial τ accepts a `worsening_fraction`-worse solution with
  /// probability `initial_acceptance`: τ0 = −worsening·C0 / ln(accept).
  double worsening_fraction = 0.05;
  double initial_acceptance = 0.5;
  /// Geometric cooling factor ρ ∈ (0,1).
  double cooling = 0.90;
  /// Inner iterations L per temperature step.
  int inner_iterations = 40;
  /// Fraction of transactions/attributes perturbed per neighborhood move.
  double move_fraction = 0.10;
  /// Freeze when τ < τ0 · min_temperature_ratio ...
  double min_temperature_ratio = 1e-4;
  /// ... or after this many consecutive outer rounds without improvement.
  int stale_rounds_limit = 10;
  /// Wall-clock cap; <= 0 means none. (The paper capped each findSolution
  /// MIP call at 30 s; our findSolution is closed-form, so the cap applies
  /// to the whole anneal.)
  double time_limit_seconds = 0.0;
  /// With more than one site, the first anneal is followed by one restart
  /// from the single-site layout, so "don't partition" is reliably in the
  /// comparison set, and then up to this many random restarts. The time
  /// budget or a cancellation stops them early; without a budget they all
  /// run.
  int max_restarts = 6;
  uint64_t seed = 1;
  /// Non-disjoint (replicating) mode is the paper's SA setting; disjoint
  /// mode rejects neighborhood moves that would force replication.
  bool allow_replication = true;
  /// Optional warm start; must match the instance dimensions and the
  /// requested site count. The anneal begins from it instead of a random x.
  const Partitioning* initial = nullptr;
  /// Cooperative cancellation: checked alongside the deadline in the inner
  /// loop; the best incumbent so far is returned. Ignored when null.
  const std::atomic<bool>* cancel_flag = nullptr;
  /// Progress stream: invoked after each anneal with the global best.
  /// Called on the solving thread; must not mutate the partitioning.
  std::function<void(const SaProgress&)> progress;
};

struct SaResult {
  Partitioning partitioning;
  double cost = 0.0;        // objective (4) of the best solution
  double scalarized = 0.0;  // objective (6) of the best solution
  long iterations = 0;
  long accepted = 0;
  /// findSolution steps actually computed: `iterations` minus the steps
  /// answered from the call's memo of fixed halves it had already solved
  /// (a repeat copies the derived half and its objective, so the anneal
  /// is the same either way). Equals `iterations` when neither half packs
  /// into the memo's 64-bit key: |T| > 64 / ⌈log2 |S|⌉ (at least 1 bit per
  /// transaction) and |A|·|S| > 64.
  long reoptimizations = 0;
  double seconds = 0.0;
  double initial_temperature = 0.0;
};

/// Algorithm 1: simulated annealing that alternately fixes x and y and
/// re-optimizes the other side in closed form.
SaResult SolveWithSa(const CostCoefficients& cost_model, int num_sites,
                     const SaOptions& options = {});

}  // namespace vpart

#endif  // VPART_SOLVER_SA_SOLVER_H_

#include "solver/exhaustive_solver.h"

#include <algorithm>

#include "solver/sa_solver.h"
#include "util/deadline.h"

namespace vpart {
namespace {

struct Enumerator {
  const CostCoefficients& cost_model;
  const ExhaustiveOptions& options;
  Deadline deadline;
  Partitioning work;
  OptimalYWorkspace optimal_y;
  ExhaustiveResult result;
  double best_key = 1e300;

  explicit Enumerator(const CostCoefficients& model, const ExhaustiveOptions& opts)
      : cost_model(model), options(opts),
        deadline(opts.time_limit_seconds),
        work(model.instance().num_transactions(),
             model.instance().num_attributes(), opts.num_sites) {}

  void Evaluate() {
    ++result.candidates;
    if (!ComputeOptimalY(cost_model, work, options.allow_replication,
                         optimal_y)) {
      return;  // disjoint mode: readers span sites
    }
    const double cost = cost_model.Objective(work);
    const double scalarized = options.rank_by_scalarized
                                  ? cost_model.ScalarizedObjective(work)
                                  : cost;
    const double key = options.rank_by_scalarized ? scalarized : cost;
    if (!result.partitioning.has_value() || key < best_key) {
      best_key = key;
      result.partitioning = work;
      result.cost = cost;
      result.scalarized = options.rank_by_scalarized
                              ? scalarized
                              : cost_model.ScalarizedObjective(work);
    }
  }

  /// Restricted-growth enumeration: transaction t may use sites
  /// 0 .. min(used, |S|-1), so each site-permutation class is visited once.
  void Recurse(int t, int used) {
    if (result.candidates >= options.max_candidates) {
      result.exhausted = false;
      return;
    }
    // Poll cancel/deadline sparsely: every 512 candidates is cheap and
    // still stops a multi-second enumeration within microseconds of work.
    if ((result.candidates & 511) == 0 &&
        ((options.cancel_flag != nullptr &&
          options.cancel_flag->load(std::memory_order_relaxed)) ||
         deadline.Expired())) {
      result.exhausted = false;
      return;
    }
    const int num_t = cost_model.instance().num_transactions();
    if (t == num_t) {
      Evaluate();
      return;
    }
    const int limit = std::min(used, options.num_sites - 1);
    for (int s = 0; s <= limit; ++s) {
      work.AssignTransaction(t, s);
      Recurse(t + 1, std::max(used, s + 1));
      if (!result.exhausted) return;
    }
  }
};

}  // namespace

ExhaustiveResult SolveExhaustively(const CostCoefficients& cost_model,
                                   const ExhaustiveOptions& options) {
  Enumerator enumerator(cost_model, options);
  enumerator.Recurse(0, 0);
  ExhaustiveResult result = std::move(enumerator.result);
  const bool pure_cost_ranking = !options.rank_by_scalarized ||
                                 cost_model.params().lambda <= 0.0;
  result.exact =
      result.exhausted && result.partitioning.has_value() && pure_cost_ranking;
  return result;
}

}  // namespace vpart

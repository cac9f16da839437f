#include "solver/incremental_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "util/deadline.h"
#include "util/stopwatch.h"

namespace vpart {

std::vector<int> RankTransactionsByWeight(const Instance& instance) {
  const int num_t = instance.num_transactions();
  std::vector<double> weight(num_t, 0.0);
  for (int q = 0; q < instance.num_queries(); ++q) {
    const Query& query = instance.workload().query(q);
    double w = 0.0;
    for (const auto& [tbl, rows] : query.table_rows) {
      (void)rows;
      for (int a : instance.schema().table(tbl).attribute_ids) {
        w += instance.W(a, q);
      }
    }
    weight[query.transaction_id] += w;
  }
  std::vector<int> order(num_t);
  for (int t = 0; t < num_t; ++t) order[t] = t;
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return weight[a] > weight[b]; });
  return order;
}

namespace {

/// Builds a sub-instance over the transaction prefix `order[0..count)`.
/// Sub-transaction i corresponds to original transaction order[i]; the
/// schema (and therefore attribute ids) is shared with the original.
StatusOr<Instance> BuildPrefixInstance(const Instance& instance,
                                       const std::vector<int>& order,
                                       int count) {
  Workload workload;
  for (int i = 0; i < count; ++i) {
    const Transaction& txn = instance.workload().transaction(order[i]);
    auto t = workload.AddTransaction(txn.name);
    VPART_RETURN_IF_ERROR(t.status());
    for (int q : txn.query_ids) {
      Query copy = instance.workload().query(q);
      copy.id = -1;
      copy.transaction_id = -1;
      auto added = workload.AddQuery(t.value(), std::move(copy));
      VPART_RETURN_IF_ERROR(added.status());
    }
  }
  // Schema is copied wholesale; attribute ids stay aligned.
  Schema schema;
  for (const Table& table : instance.schema().tables()) {
    auto tbl = schema.AddTable(table.name);
    VPART_RETURN_IF_ERROR(tbl.status());
    for (int a : table.attribute_ids) {
      auto attr = schema.AddAttribute(tbl.value(),
                                      instance.schema().attribute(a).name,
                                      instance.schema().attribute(a).width);
      VPART_RETURN_IF_ERROR(attr.status());
    }
  }
  return Instance::Create(instance.name() + ".prefix", std::move(schema),
                          std::move(workload));
}

/// Places one (newly added) transaction on its cheapest covering site,
/// extending y where no site covers its read set.
void PlaceTransactionGreedy(const CostCoefficients& cost_model, Partitioning& p,
                            int t) {
  const Instance& instance = cost_model.instance();
  const std::vector<int>& reads = instance.ReadSetOfTransaction(t);
  int best_site = -1;
  double best_cost = 0.0;
  for (int s = 0; s < p.num_sites(); ++s) {
    bool covered = true;
    for (int a : reads) {
      if (!p.HasAttribute(a, s)) {
        covered = false;
        break;
      }
    }
    if (!covered) continue;
    const double cost = cost_model.TransactionOnSiteCost(p, t, s);
    if (best_site < 0 || cost < best_cost) {
      best_site = s;
      best_cost = cost;
    }
  }
  if (best_site < 0) {
    best_site = 0;
    double best_repair = 1e300;
    for (int s = 0; s < p.num_sites(); ++s) {
      double cost = cost_model.TransactionOnSiteCost(p, t, s);
      for (int a : reads) {
        if (!p.HasAttribute(a, s)) cost += cost_model.c2(a);
      }
      if (cost < best_repair) {
        best_repair = cost;
        best_site = s;
      }
    }
    for (int a : reads) {
      if (!p.HasAttribute(a, best_site)) p.PlaceAttribute(a, best_site);
    }
  }
  p.AssignTransaction(t, best_site);
}

}  // namespace

SaResult SolveIncrementally(const CostCoefficients& cost_model, int num_sites,
                            const IncrementalOptions& options) {
  const Instance& instance = cost_model.instance();
  const int num_t = instance.num_transactions();
  const int num_a = instance.num_attributes();
  Stopwatch watch;

  const std::vector<int> order = RankTransactionsByWeight(instance);
  int prefix = std::max(
      1, static_cast<int>(std::ceil(options.initial_fraction * num_t)));
  prefix = std::min(prefix, num_t);

  // `sa.time_limit_seconds` budgets the whole solve: each anneal gets what
  // is left of it, and a spent budget stops the fold-in like a cancel.
  const Deadline deadline(options.sa.time_limit_seconds);
  auto cancelled = [&options, &deadline]() {
    return deadline.Expired() ||
           (options.sa.cancel_flag != nullptr &&
            options.sa.cancel_flag->load(std::memory_order_relaxed));
  };
  int round = 0;
  auto emit_progress = [&](int covered, double scalarized) {
    if (!options.progress) return;
    IncrementalProgress snapshot;
    snapshot.round = round++;
    snapshot.covered = covered;
    snapshot.total = num_t;
    snapshot.best_scalarized = scalarized;
    snapshot.seconds = watch.ElapsedSeconds();
    options.progress(snapshot);
  };

  // Phase 1: anneal the heavy prefix on its own sub-instance. Rebind()
  // reprices the caller's backend (whatever its physics) on each prefix;
  // the models own their instances via shared_ptr, so no manual lifetime
  // juggling is needed across the growth rounds.
  auto sub = BuildPrefixInstance(instance, order, prefix);
  assert(sub.ok());
  std::unique_ptr<CostCoefficients> sub_model = cost_model.Rebind(
      std::make_shared<const Instance>(std::move(sub.value())));
  SaResult sub_result = SolveWithSa(*sub_model, num_sites, options.sa);
  emit_progress(prefix, sub_result.scalarized);

  // Lift to the permuted full solution progressively.
  long iterations = sub_result.iterations;
  long reoptimizations = sub_result.reoptimizations;
  Partitioning current = sub_result.partitioning;

  const int batches = std::max(1, options.batches);
  const int remaining = num_t - prefix;
  const int chunk = (remaining + batches - 1) / std::max(batches, 1);

  int covered = prefix;
  while (covered < num_t) {
    // Once cancelled or out of budget, fold everything left in at once and
    // skip the re-anneal below: the caller gets a complete feasible
    // solution fast. The flag is read once per round: a cancel that lands
    // mid-round only cuts that round's re-anneal short, and the next round
    // folds the rest.
    const bool stop = cancelled();
    const int next =
        stop ? num_t : std::min(num_t, covered + std::max(chunk, 1));
    auto grown_or = BuildPrefixInstance(instance, order, next);
    assert(grown_or.ok());
    std::unique_ptr<CostCoefficients> grown_ptr = cost_model.Rebind(
        std::make_shared<const Instance>(std::move(grown_or.value())));
    const CostCoefficients& grown_model = *grown_ptr;

    Partitioning extended(next, num_a, num_sites);
    for (int i = 0; i < covered; ++i) {
      extended.AssignTransaction(i, current.SiteOfTransaction(i));
    }
    for (int a = 0; a < num_a; ++a) {
      for (int s = 0; s < num_sites; ++s) {
        if (current.HasAttribute(a, s)) extended.PlaceAttribute(a, s);
      }
    }
    for (int i = covered; i < next; ++i) {
      PlaceTransactionGreedy(grown_model, extended, i);
    }

    if (stop) {
      current = std::move(extended);
      covered = next;
      emit_progress(covered, grown_model.ScalarizedObjective(current));
      break;
    }

    // Short re-anneal seeded from the extended solution.
    SaOptions re = options.sa;
    re.time_limit_seconds = deadline.SolverBudgetSeconds();
    re.initial = &extended;
    re.inner_iterations = std::max(4, options.sa.inner_iterations / 2);
    re.stale_rounds_limit = std::max(2, options.sa.stale_rounds_limit / 2);
    SaResult reannealed = SolveWithSa(grown_model, num_sites, re);
    iterations += reannealed.iterations;
    reoptimizations += reannealed.reoptimizations;
    current = std::move(reannealed.partitioning);
    covered = next;
    emit_progress(covered, reannealed.scalarized);
  }

  // Permute transactions back to original ids.
  Partitioning final_solution(num_t, num_a, num_sites);
  for (int i = 0; i < num_t; ++i) {
    final_solution.AssignTransaction(order[i], current.SiteOfTransaction(i));
  }
  for (int a = 0; a < num_a; ++a) {
    for (int s = 0; s < num_sites; ++s) {
      if (current.HasAttribute(a, s)) final_solution.PlaceAttribute(a, s);
    }
  }

  SaResult result;
  result.cost = cost_model.Objective(final_solution);
  result.scalarized = cost_model.ScalarizedObjective(final_solution);
  result.partitioning = std::move(final_solution);
  result.iterations = iterations;
  result.reoptimizations = reoptimizations;
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace vpart

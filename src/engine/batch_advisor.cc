#include "engine/batch_advisor.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "api/advise.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace vpart {

StatusOr<std::vector<TableSubinstance>> SplitInstanceByTable(
    const Instance& instance) {
  const Schema& schema = instance.schema();
  const Workload& workload = instance.workload();
  std::vector<TableSubinstance> subs;

  for (int tbl = 0; tbl < schema.num_tables(); ++tbl) {
    const Table& table = schema.table(tbl);
    Schema sub_schema;
    StatusOr<int> sub_table = sub_schema.AddTable(table.name);
    VPART_RETURN_IF_ERROR(sub_table.status());

    TableSubinstance sub;
    sub.table_id = tbl;
    std::vector<int> local_of_attribute(instance.num_attributes(), -1);
    for (int a : table.attribute_ids) {
      const Attribute& attribute = schema.attribute(a);
      StatusOr<int> local = sub_schema.AddAttribute(
          *sub_table, attribute.name, attribute.width);
      VPART_RETURN_IF_ERROR(local.status());
      local_of_attribute[a] = *local;
      sub.attribute_map.push_back(a);
    }

    Workload sub_workload;
    for (int t = 0; t < workload.num_transactions(); ++t) {
      const Transaction& transaction = workload.transaction(t);
      // Only queries that access this table matter for its cost terms.
      std::vector<int> relevant;
      for (int q : transaction.query_ids) {
        if (workload.query(q).RowsInTable(tbl) > 0) relevant.push_back(q);
      }
      if (relevant.empty()) continue;
      StatusOr<int> sub_t = sub_workload.AddTransaction(transaction.name);
      VPART_RETURN_IF_ERROR(sub_t.status());
      sub.transaction_map.push_back(t);
      for (int q : relevant) {
        const Query& query = workload.query(q);
        Query sub_query;
        sub_query.transaction_id = *sub_t;
        sub_query.name = query.name;
        sub_query.kind = query.kind;
        sub_query.frequency = query.frequency;
        for (int a : query.attributes) {
          if (local_of_attribute[a] >= 0) {
            sub_query.attributes.push_back(local_of_attribute[a]);
          }
        }
        sub_query.table_rows.emplace_back(*sub_table,
                                          query.RowsInTable(tbl));
        StatusOr<int> added =
            sub_workload.AddQuery(*sub_t, std::move(sub_query));
        VPART_RETURN_IF_ERROR(added.status());
      }
    }
    if (sub.transaction_map.empty()) continue;  // untouched table

    StatusOr<Instance> built =
        Instance::Create(instance.name() + "." + table.name,
                         std::move(sub_schema), std::move(sub_workload));
    VPART_RETURN_IF_ERROR(built.status());
    sub.instance = std::move(*built);
    subs.push_back(std::move(sub));
  }
  return subs;
}

namespace {

/// Workload weight transaction `t` carries in `instance`: Σ_q Σ_a W(a,q)
/// over t's queries — the vote strength when projecting per-table sites
/// onto one schema-wide transaction site.
double TransactionWeight(const Instance& instance, int t) {
  double weight = 0.0;
  for (int q = 0; q < instance.num_queries(); ++q) {
    if (!instance.gamma(q, t)) continue;
    for (int a = 0; a < instance.num_attributes(); ++a) {
      weight += instance.W(a, q);
    }
  }
  return weight;
}

}  // namespace

StatusOr<BatchAdvisorResult> AdviseSchema(const Instance& instance,
                                          const BatchAdviseRequest& batch) {
  const AdviseRequest& request = batch.request;
  if (request.num_sites < 1) {
    return InvalidArgumentError("num_sites must be >= 1");
  }
  VPART_RETURN_IF_ERROR(CheckThreadCount("num_threads", request.num_threads));
  VPART_RETURN_IF_ERROR(
      CheckThreadCount("ilp.bnb_threads", request.ilp.bnb_threads));
  VPART_RETURN_IF_ERROR(CheckThreadCount("table_threads", batch.table_threads));
  Stopwatch watch;
  ScopedObsLevel scoped_obs(request.obs);
  Span batch_span("batch_advise", "batch");
  batch_span.AddArg("instance", instance.name());
  StatusOr<std::vector<TableSubinstance>> split =
      SplitInstanceByTable(instance);
  VPART_RETURN_IF_ERROR(split.status());
  std::vector<TableSubinstance>& subs = *split;

  const int n = static_cast<int>(subs.size());
  batch_span.AddArg("tables", static_cast<long>(n));
  static Counter& tables_total = MetricsRegistry::Global().GetCounter(
      "vpart_batch_tables_total", "Per-table solves run by batch advises");
  std::vector<std::optional<AdvisorResult>> results(n);
  std::vector<Status> statuses(n);
  const int threads_used = batch.table_threads > 0 ? batch.table_threads
                                                   : DefaultThreadCount();
  // Per-table solves go through the service API (one request template,
  // one solver resolution path) — the same pipeline AdviseSession runs,
  // minus the telemetry snapshots: a lane keeps only `result`.
  // Each solve gets its own span on whichever thread picked it up, so
  // traces show the per-table schedule across threads.
  ParallelFor(n, threads_used, [&](int i) {
    tables_total.Increment();
    Span table_span("batch_table", "batch");
    table_span.AddArg("table",
                      instance.schema().table(subs[i].table_id).name);
    StatusOr<AdviseResponse> advised =
        AdviseWithoutSnapshots(subs[i].instance, request);
    if (advised.ok()) {
      table_span.AddArg("cost", advised->result.cost);
      results[i] = std::move(advised->result);
    } else {
      statuses[i] = advised.status();
    }
  });
  for (int i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      return Status(statuses[i].code(),
                    StrFormat("table %s: %s",
                              instance.schema().table(subs[i].table_id)
                                  .name.c_str(),
                              statuses[i].message().c_str()));
    }
  }

  std::vector<AdvisorResult> answers;
  answers.reserve(n);
  for (int i = 0; i < n; ++i) answers.push_back(std::move(*results[i]));
  StatusOr<BatchAdvisorResult> merged =
      MergeTableAdvice(instance, subs, std::move(answers), request.num_sites);
  VPART_RETURN_IF_ERROR(merged.status());
  merged->threads_used = threads_used;
  merged->combined.seconds = watch.ElapsedSeconds();
  merged->seconds = merged->combined.seconds;
  return merged;
}

StatusOr<BatchAdvisorResult> MergeTableAdvice(
    const Instance& instance, const std::vector<TableSubinstance>& subs,
    std::vector<AdvisorResult> results, int num_sites) {
  if (num_sites < 1) return InvalidArgumentError("num_sites must be >= 1");
  if (results.size() != subs.size()) {
    return InvalidArgumentError("one result per table subinstance required");
  }
  const int n = static_cast<int>(subs.size());
  BatchAdvisorResult result_batch;
  AdvisorResult& combined = result_batch.combined;
  combined.partitioning = Partitioning(instance.num_transactions(),
                                       instance.num_attributes(), num_sites);

  // Untouched tables have no workload pulling them anywhere: site 0.
  std::vector<bool> advised_attribute(instance.num_attributes(), false);
  std::set<std::string> algorithms;
  combined.proven_optimal = true;
  std::vector<std::vector<double>> votes(
      instance.num_transactions(), std::vector<double>(num_sites, 0.0));

  for (int i = 0; i < n; ++i) {
    const TableSubinstance& sub = subs[i];
    AdvisorResult& result = results[i];
    // Results may come from worker processes: a layout over another site
    // count would index past `votes` and the combined partitioning.
    if (result.partitioning.num_sites() != num_sites) {
      return InvalidArgumentError(StrFormat(
          "table %s: advice spans %d sites, not %d",
          instance.schema().table(sub.table_id).name.c_str(),
          result.partitioning.num_sites(), num_sites));
    }

    TableAdvice advice;
    advice.table_id = sub.table_id;
    advice.table_name = instance.schema().table(sub.table_id).name;

    // Attribute placements transfer 1:1 through the id map.
    const int sub_attributes = static_cast<int>(sub.attribute_map.size());
    for (int a = 0; a < sub_attributes; ++a) {
      const int global_a = sub.attribute_map[a];
      advised_attribute[global_a] = true;
      for (int s : result.partitioning.SitesOfAttribute(a)) {
        combined.partitioning.PlaceAttribute(global_a, s);
      }
    }
    // Transaction sites vote, weighted by the workload the transaction
    // carries against this table.
    const int sub_transactions =
        static_cast<int>(sub.transaction_map.size());
    for (int t = 0; t < sub_transactions; ++t) {
      const int site = result.partitioning.SiteOfTransaction(t);
      if (site >= 0) {
        votes[sub.transaction_map[t]][site] +=
            TransactionWeight(sub.instance, t);
      }
    }

    combined.cost += result.cost;
    combined.single_site_cost += result.single_site_cost;
    combined.latency_cost += result.latency_cost;
    combined.breakdown.read_access += result.breakdown.read_access;
    combined.breakdown.write_access += result.breakdown.write_access;
    combined.breakdown.transfer += result.breakdown.transfer;
    combined.breakdown.total += result.breakdown.total;
    combined.proven_optimal =
        combined.proven_optimal && result.proven_optimal;
    algorithms.insert(result.algorithm_used);

    advice.result = std::move(result);
    result_batch.tables.push_back(std::move(advice));
  }

  for (int a = 0; a < instance.num_attributes(); ++a) {
    if (!advised_attribute[a]) combined.partitioning.PlaceAttribute(a, 0);
  }
  for (int t = 0; t < instance.num_transactions(); ++t) {
    int best_site = 0;
    for (int s = 1; s < num_sites; ++s) {
      if (votes[t][s] > votes[t][best_site]) best_site = s;
    }
    combined.partitioning.AssignTransaction(t, best_site);
  }

  combined.reduction_percent =
      combined.single_site_cost > 0
          ? 100.0 * (1.0 - combined.cost / combined.single_site_cost)
          : 0.0;
  std::string algorithm_list;
  for (const std::string& name : algorithms) {
    if (!algorithm_list.empty()) algorithm_list += ",";
    algorithm_list += name;
  }
  combined.algorithm_used =
      StrFormat("batch[%d]:%s", n, algorithm_list.c_str());
  return result_batch;
}

}  // namespace vpart

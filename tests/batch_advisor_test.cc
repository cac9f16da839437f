#include <gtest/gtest.h>

#include <set>

#include "api/solver_registry.h"
#include "cost/cost_model.h"
#include "engine/batch_advisor.h"
#include "instances/random_instance.h"
#include "instances/tpcc.h"

namespace vpart {
namespace {

// The single-site layout has no cross-table interaction, so the per-table
// decomposition must reproduce its cost exactly — the core exactness sanity
// check of SplitInstanceByTable's cost bookkeeping.
TEST(SplitInstanceTest, PerTableSingleSiteCostsSumToTheWhole) {
  Instance tpcc = MakeTpccInstance();
  CostParams params{.p = 8, .lambda = 0.0};
  CostModel full(&tpcc, params);
  const double whole =
      full.Objective(SingleSiteBaseline(tpcc, /*num_sites=*/1));

  StatusOr<std::vector<TableSubinstance>> subs = SplitInstanceByTable(tpcc);
  ASSERT_TRUE(subs.ok());
  double sum = 0.0;
  for (const TableSubinstance& sub : *subs) {
    CostModel model(&sub.instance, params);
    sum += model.Objective(SingleSiteBaseline(sub.instance, 1));
  }
  EXPECT_NEAR(sum, whole, 1e-6 * (1 + whole));
}

TEST(SplitInstanceTest, MapsCoverEveryTouchedAttributeExactlyOnce) {
  Instance tpcc = MakeTpccInstance();
  StatusOr<std::vector<TableSubinstance>> subs = SplitInstanceByTable(tpcc);
  ASSERT_TRUE(subs.ok());
  // TPC-C touches all nine tables.
  EXPECT_EQ(subs->size(), 9u);
  std::set<int> seen;
  for (const TableSubinstance& sub : *subs) {
    EXPECT_EQ(sub.instance.num_attributes(),
              static_cast<int>(sub.attribute_map.size()));
    EXPECT_EQ(sub.instance.num_transactions(),
              static_cast<int>(sub.transaction_map.size()));
    for (int global : sub.attribute_map) {
      EXPECT_TRUE(seen.insert(global).second) << "attribute " << global;
      EXPECT_EQ(tpcc.schema().attribute(global).table_id, sub.table_id);
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), tpcc.num_attributes());
}

TEST(SplitInstanceTest, UntouchedTablesAreOmitted) {
  InstanceBuilder builder("partial");
  int r = builder.AddTable("R");
  int s = builder.AddTable("S");  // never queried
  int x = builder.AddAttribute(r, "x", 8);
  builder.AddAttribute(s, "y", 8);
  int t0 = builder.AddTransaction("T0");
  builder.AddQuery(t0, "q0", QueryKind::kRead, 1.0, {x}, {{r, 1.0}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  StatusOr<std::vector<TableSubinstance>> subs =
      SplitInstanceByTable(*instance);
  ASSERT_TRUE(subs.ok());
  ASSERT_EQ(subs->size(), 1u);
  EXPECT_EQ((*subs)[0].table_id, 0);

  // The untouched table's attribute still lands somewhere in the merge.
  BatchAdviseRequest batch;
  batch.request.num_sites = 2;
  batch.table_threads = 2;
  StatusOr<BatchAdvisorResult> advised = AdviseSchema(*instance, batch);
  ASSERT_TRUE(advised.ok()) << advised.status().ToString();
  EXPECT_GE(advised->combined.partitioning.ReplicaCount(1), 1);
}

TEST(BatchAdvisorTest, AdvisesTpccAndMergesAllTables) {
  Instance tpcc = MakeTpccInstance();
  BatchAdviseRequest batch;
  batch.request.num_sites = 3;
  batch.request.solver = kSolverExhaustive;
  batch.table_threads = 4;
  StatusOr<BatchAdvisorResult> advised = AdviseSchema(tpcc, batch);
  ASSERT_TRUE(advised.ok()) << advised.status().ToString();

  EXPECT_EQ(advised->tables.size(), 9u);
  const AdvisorResult& combined = advised->combined;
  // Sums line up with the per-table results.
  double cost = 0.0, single = 0.0;
  for (const TableAdvice& advice : advised->tables) {
    cost += advice.result.cost;
    single += advice.result.single_site_cost;
  }
  EXPECT_NEAR(combined.cost, cost, 1e-9 * (1 + cost));
  EXPECT_NEAR(combined.single_site_cost, single, 1e-9 * (1 + single));
  EXPECT_LE(combined.cost, combined.single_site_cost + 1e-9);

  // Whole-site coverage in the merged layout: every attribute placed,
  // every transaction assigned a site.
  for (int a = 0; a < tpcc.num_attributes(); ++a) {
    EXPECT_GE(combined.partitioning.ReplicaCount(a), 1) << "attribute " << a;
  }
  for (int t = 0; t < tpcc.num_transactions(); ++t) {
    EXPECT_GE(combined.partitioning.SiteOfTransaction(t), 0) << "txn " << t;
  }
  EXPECT_NE(combined.algorithm_used.find("batch[9]"), std::string::npos);
}

// The batch contract: results are a pure function of the request — thread
// count only changes the wall clock, never the advice.
TEST(BatchAdvisorTest, ThreadCountDoesNotChangeTheAdvice) {
  Instance tpcc = MakeTpccInstance();
  BatchAdviseRequest batch;
  batch.request.num_sites = 2;
  batch.request.solver = kSolverExhaustive;

  batch.table_threads = 1;
  StatusOr<BatchAdvisorResult> one = AdviseSchema(tpcc, batch);
  batch.table_threads = 4;
  StatusOr<BatchAdvisorResult> four = AdviseSchema(tpcc, batch);
  ASSERT_TRUE(one.ok() && four.ok());
  EXPECT_EQ(one->combined.cost, four->combined.cost);
  EXPECT_TRUE(one->combined.partitioning == four->combined.partitioning);
  EXPECT_EQ(one->threads_used, 1);
  EXPECT_EQ(four->threads_used, 4);
}

// The same contract for SA lanes, which run concurrently: each per-table
// anneal is seeded and owns its scratch, so no lane can see another's.
TEST(BatchAdvisorTest, SaAdviceDoesNotDependOnTableThreads) {
  const Instance schema = MakeRandomInstance(Table1DefaultParams(30, 1));
  BatchAdviseRequest batch;
  batch.request.num_sites = 3;
  batch.request.solver = kSolverSa;

  batch.table_threads = 1;
  StatusOr<BatchAdvisorResult> one = AdviseSchema(schema, batch);
  batch.table_threads = 4;
  StatusOr<BatchAdvisorResult> four = AdviseSchema(schema, batch);
  ASSERT_TRUE(one.ok() && four.ok());
  EXPECT_EQ(four->threads_used, 4);
  ASSERT_EQ(one->tables.size(), four->tables.size());
  for (size_t i = 0; i < one->tables.size(); ++i) {
    const AdvisorResult& a = one->tables[i].result;
    const AdvisorResult& b = four->tables[i].result;
    EXPECT_EQ(a.cost, b.cost) << one->tables[i].table_name;
    EXPECT_TRUE(a.partitioning == b.partitioning)
        << one->tables[i].table_name;
  }
  EXPECT_EQ(one->combined.cost, four->combined.cost);
  EXPECT_TRUE(one->combined.partitioning == four->combined.partitioning);
}

TEST(BatchAdvisorTest, PerTableProofsRollUpToTheCombinedFlag) {
  Instance tpcc = MakeTpccInstance();
  BatchAdviseRequest batch;
  batch.request.num_sites = 2;
  batch.request.solver = kSolverExhaustive;
  batch.request.cost.lambda = 0.0;  // exhaustive is exact at λ = 0
  batch.table_threads = 3;
  StatusOr<BatchAdvisorResult> advised = AdviseSchema(tpcc, batch);
  ASSERT_TRUE(advised.ok());
  for (const TableAdvice& advice : advised->tables) {
    EXPECT_TRUE(advice.result.proven_optimal) << advice.table_name;
  }
  EXPECT_TRUE(advised->combined.proven_optimal);
}

// AdviseSchema bounds its table lanes and the per-table request's thread
// counts before it splits the schema, so none of these starts a thread
// (SA per table, so a missing request check would start none either).
TEST(BatchAdvisorTest, RejectsThreadCountsOutsideTheBound) {
  Instance tpcc = MakeTpccInstance();
  for (int count : {1000000, -1}) {
    for (const char* key : {"table_threads", "num_threads", "bnb_threads"}) {
      BatchAdviseRequest batch;
      batch.request.solver = kSolverSa;
      batch.request.time_limit_seconds = 1;
      batch.table_threads = 1;
      const std::string name = key;
      if (name == "table_threads") batch.table_threads = count;
      if (name == "num_threads") batch.request.num_threads = count;
      if (name == "bnb_threads") batch.request.ilp.bnb_threads = count;
      StatusOr<BatchAdvisorResult> advised = AdviseSchema(tpcc, batch);
      ASSERT_FALSE(advised.ok()) << key << " " << count;
      EXPECT_EQ(advised.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(advised.status().message().find(name), std::string::npos)
          << advised.status().ToString();
    }
  }
}

TEST(BatchAdvisorTest, RejectsBadSiteCount) {
  Instance tpcc = MakeTpccInstance();
  BatchAdviseRequest batch;
  batch.request.num_sites = 0;
  StatusOr<BatchAdvisorResult> advised = AdviseSchema(tpcc, batch);
  EXPECT_FALSE(advised.ok());

  // A per-table answer over more sites than the merge (a worker's answer
  // is peer input) is rejected, not written past the combined layout.
  StatusOr<std::vector<TableSubinstance>> subs = SplitInstanceByTable(tpcc);
  ASSERT_TRUE(subs.ok());
  std::vector<AdvisorResult> results(subs->size());
  for (size_t i = 0; i < subs->size(); ++i) {
    results[i].partitioning =
        SingleSiteBaseline((*subs)[i].instance, /*num_sites=*/3);
  }
  results.back().partitioning =
      SingleSiteBaseline(subs->back().instance, /*num_sites=*/9);
  StatusOr<BatchAdvisorResult> merged =
      MergeTableAdvice(tpcc, *subs, std::move(results), /*num_sites=*/3);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vpart

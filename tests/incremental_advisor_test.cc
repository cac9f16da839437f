#include <gtest/gtest.h>

#include "api/advise.h"
#include "api/solver_registry.h"
#include "cost/cost_model.h"
#include "instances/random_instance.h"
#include "instances/tpcc.h"
#include "solver/incremental_solver.h"

namespace vpart {
namespace {

TEST(RankTransactionsTest, HeaviestFirst) {
  InstanceBuilder builder("rank");
  int r = builder.AddTable("R");
  int x = builder.AddAttribute(r, "x", 8);
  int light = builder.AddTransaction("light");
  int heavy = builder.AddTransaction("heavy");
  builder.AddQuery(light, "ql", QueryKind::kRead, 1.0, {x}, {{r, 1.0}});
  builder.AddQuery(heavy, "qh", QueryKind::kRead, 50.0, {x}, {{r, 1.0}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());
  std::vector<int> order = RankTransactionsByWeight(instance.value());
  EXPECT_EQ(order[0], heavy);
  EXPECT_EQ(order[1], light);
}

TEST(IncrementalSolverTest, ProducesFeasibleSolutions) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RandomInstanceParams params;
    params.num_transactions = 15;
    params.num_tables = 6;
    params.update_percent = 20;
    params.seed = 600 + seed;
    Instance instance = MakeRandomInstance(params);
    CostModel model(&instance, {.p = 8, .lambda = 0.1});
    IncrementalOptions options;
    options.sa.seed = seed;
    options.sa.inner_iterations = 10;
    options.sa.stale_rounds_limit = 3;
    SaResult result = SolveIncrementally(model, 3, options);
    EXPECT_TRUE(ValidatePartitioning(instance, result.partitioning).ok())
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(result.cost, model.Objective(result.partitioning));
  }
}

TEST(IncrementalSolverTest, ComparableToPlainSa) {
  Instance instance = MakeTpccInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  IncrementalOptions options;
  options.sa.seed = 4;
  SaResult incremental = SolveIncrementally(model, 2, options);
  SaOptions sa;
  sa.seed = 4;
  SaResult plain = SolveWithSa(model, 2, sa);
  // Both heuristics must land in the same ballpark (within 2x).
  EXPECT_LT(incremental.cost, plain.cost * 2 + 1e-9);
  EXPECT_LT(plain.cost, incremental.cost * 2 + 1e-9);
}

TEST(AdvisorTest, TpccReductionMatchesPaperBallpark) {
  // The paper's headline: ~37% cost reduction on TPC-C with 2-3 sites.
  Instance instance = MakeTpccInstance();
  AdviseRequest request;
  request.num_sites = 3;
  request.cost = {.p = 8, .lambda = 0.1};
  request.seed = 1;
  auto response = Advise(instance, request);
  ASSERT_TRUE(response.ok()) << response.status();
  const AdvisorResult& result = response->result;
  EXPECT_TRUE(ValidatePartitioning(instance, result.partitioning).ok());
  EXPECT_GT(result.reduction_percent, 20);
  EXPECT_LT(result.reduction_percent, 60);
  EXPECT_GT(result.single_site_cost, 0);
}

TEST(AdvisorTest, AlgorithmSelectionAuto) {
  Instance instance = MakeTpccInstance();  // |T| = 5 -> exhaustive
  AdviseRequest request;
  request.num_sites = 2;
  auto response = Advise(instance, request);
  ASSERT_TRUE(response.ok());
  const std::string& algorithm = response->result.algorithm_used;
  EXPECT_NE(algorithm.find("exhaustive"), std::string::npos);
  EXPECT_NE(algorithm.find("groups"), std::string::npos);
}

TEST(AdvisorTest, LargeInstanceFallsBackToSa) {
  RandomInstanceParams params;
  params.num_transactions = 60;
  params.num_tables = 30;
  params.seed = 8;
  Instance instance = MakeRandomInstance(params);
  AdviseRequest request;
  request.num_sites = 2;
  request.time_limit_seconds = 3;
  auto response = Advise(instance, request);
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->result.algorithm_used.find("sa"), std::string::npos);
}

TEST(AdvisorTest, ExplicitAlgorithmsAllWork) {
  RandomInstanceParams params;
  params.num_transactions = 6;
  params.num_tables = 4;
  params.seed = 9;
  Instance instance = MakeRandomInstance(params);
  for (const char* solver :
       {kSolverExhaustive, kSolverSa, kSolverIlp, kSolverIncremental}) {
    AdviseRequest request;
    request.num_sites = 2;
    request.solver = solver;
    request.time_limit_seconds = 10;
    auto response = Advise(instance, request);
    ASSERT_TRUE(response.ok()) << solver;
    EXPECT_TRUE(
        ValidatePartitioning(instance, response->result.partitioning).ok());
  }
}

TEST(AdvisorTest, DisjointModeRespected) {
  Instance instance = MakeTpccInstance();
  AdviseRequest request;
  request.num_sites = 2;
  request.allow_replication = false;
  auto response = Advise(instance, request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(
      ValidatePartitioning(instance, response->result.partitioning, true)
          .ok());
}

TEST(AdvisorTest, RejectsBadSiteCount) {
  Instance instance = MakeTpccInstance();
  AdviseRequest request;
  request.num_sites = 0;
  EXPECT_FALSE(Advise(instance, request).ok());
}

TEST(AdvisorTest, SingleSiteReductionIsZero) {
  Instance instance = MakeTpccInstance();
  AdviseRequest request;
  request.num_sites = 1;
  auto response = Advise(instance, request);
  ASSERT_TRUE(response.ok());
  EXPECT_NEAR(response->result.reduction_percent, 0, 1e-9);
}

}  // namespace
}  // namespace vpart

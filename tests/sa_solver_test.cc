#include <gtest/gtest.h>

#include <cmath>

#include "api/advise.h"
#include "api/solver_registry.h"
#include "cost/cost_model.h"
#include "engine/batch_advisor.h"
#include "instances/random_instance.h"
#include "instances/tpcc.h"
#include "solver/sa_solver.h"

namespace vpart {
namespace {

Instance MicroInstance() {
  // Two disjoint one-table workloads: the obvious optimum on two sites is
  // to separate them completely.
  InstanceBuilder builder("split");
  int r = builder.AddTable("R");
  int s = builder.AddTable("S");
  int x = builder.AddAttribute(r, "x", 8);
  int y = builder.AddAttribute(s, "y", 8);
  int t0 = builder.AddTransaction("T0");
  int t1 = builder.AddTransaction("T1");
  builder.AddQuery(t0, "q0", QueryKind::kRead, 1.0, {x}, {{r, 1.0}});
  builder.AddQuery(t1, "q1", QueryKind::kRead, 1.0, {y}, {{s, 1.0}});
  auto instance = builder.Build();
  EXPECT_TRUE(instance.ok());
  return std::move(instance.value());
}

TEST(ComputeOptimalYTest, ForcesReadSetsAndCoversEverything) {
  Instance instance = MicroInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.0});
  Partitioning p(2, 2, 2);
  p.AssignTransaction(0, 0);
  p.AssignTransaction(1, 1);
  ASSERT_TRUE(ComputeOptimalY(model, p));
  EXPECT_TRUE(p.HasAttribute(0, 0));  // x with T0
  EXPECT_TRUE(p.HasAttribute(1, 1));  // y with T1
  EXPECT_TRUE(ValidatePartitioning(instance, p).ok());
}

TEST(ComputeOptimalYTest, ReplicatesWhenBeneficial) {
  // A write-free attribute read by transactions on both sites must be
  // replicated to both (forced by φ).
  InstanceBuilder builder("shared");
  int r = builder.AddTable("R");
  int x = builder.AddAttribute(r, "x", 8);
  int t0 = builder.AddTransaction("T0");
  int t1 = builder.AddTransaction("T1");
  builder.AddQuery(t0, "q0", QueryKind::kRead, 1.0, {x}, {{r, 1.0}});
  builder.AddQuery(t1, "q1", QueryKind::kRead, 1.0, {x}, {{r, 1.0}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());
  CostModel model(&instance.value(), {.p = 8, .lambda = 0.0});
  Partitioning p(2, 1, 2);
  p.AssignTransaction(0, 0);
  p.AssignTransaction(1, 1);
  ASSERT_TRUE(ComputeOptimalY(model, p));
  EXPECT_EQ(p.ReplicaCount(0), 2);
}

TEST(ComputeOptimalYTest, DisjointModeFailsWhenReadersSpanSites) {
  InstanceBuilder builder("shared");
  int r = builder.AddTable("R");
  int x = builder.AddAttribute(r, "x", 8);
  int t0 = builder.AddTransaction("T0");
  int t1 = builder.AddTransaction("T1");
  builder.AddQuery(t0, "q0", QueryKind::kRead, 1.0, {x}, {{r, 1.0}});
  builder.AddQuery(t1, "q1", QueryKind::kRead, 1.0, {x}, {{r, 1.0}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());
  CostModel model(&instance.value(), {.p = 8, .lambda = 0.0});
  Partitioning p(2, 1, 2);
  p.AssignTransaction(0, 0);
  p.AssignTransaction(1, 1);
  EXPECT_FALSE(ComputeOptimalY(model, p, /*allow_replication=*/false));
  // Same site works.
  p.AssignTransaction(1, 0);
  EXPECT_TRUE(ComputeOptimalY(model, p, /*allow_replication=*/false));
  EXPECT_EQ(p.ReplicaCount(0), 1);
}

TEST(ComputeOptimalXTest, PicksCoveringSiteWithLowestCost) {
  Instance instance = MicroInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.0});
  Partitioning p(2, 2, 2);
  p.AssignTransaction(0, 1);  // start "wrong"
  p.AssignTransaction(1, 0);
  p.PlaceAttribute(0, 0);  // x on site 0
  p.PlaceAttribute(1, 1);  // y on site 1
  ASSERT_TRUE(ComputeOptimalX(model, p));
  EXPECT_EQ(p.SiteOfTransaction(0), 0);
  EXPECT_EQ(p.SiteOfTransaction(1), 1);
  EXPECT_TRUE(ValidatePartitioning(instance, p).ok());
}

TEST(ComputeOptimalXTest, RepairsUncoveredTransactionByReplication) {
  Instance instance = MicroInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.0});
  Partitioning p(2, 2, 2);
  p.AssignTransaction(0, 0);
  p.AssignTransaction(1, 0);
  p.PlaceAttribute(0, 0);
  // y nowhere: T1 has no covering site anywhere.
  p.ClearAttribute(1);
  ASSERT_TRUE(ComputeOptimalX(model, p));
  EXPECT_GE(p.ReplicaCount(1), 1);
  EXPECT_TRUE(ValidatePartitioning(instance, p).ok());
}

TEST(SaSolverTest, FindsTheObviousSplit) {
  // Objective (4) is indifferent between co-locating and splitting these
  // two independent workloads (8 + 8 either way); the load-balancing term
  // (λ = 0.5) makes the split strictly better, as §2.2 intends.
  Instance instance = MicroInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.5});
  SaOptions options;
  options.seed = 3;
  SaResult result = SolveWithSa(model, 2, options);
  EXPECT_TRUE(ValidatePartitioning(instance, result.partitioning).ok());
  // Optimal: each table fraction alone with its transaction, cost 8 + 8.
  EXPECT_DOUBLE_EQ(result.cost, 16);
  EXPECT_NE(result.partitioning.SiteOfTransaction(0),
            result.partitioning.SiteOfTransaction(1));
}

TEST(SaSolverTest, InitialTemperatureFollowsSection51) {
  Instance instance = MakeTpccInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  SaOptions options;
  options.seed = 1;
  options.inner_iterations = 2;
  options.stale_rounds_limit = 1;
  SaResult result = SolveWithSa(model, 2, options);
  // τ0 = −0.05·C0/ln 0.5 > 0; C0 is the initial scalarized objective, so
  // τ0 must be positive and of the same magnitude scale.
  EXPECT_GT(result.initial_temperature, 0);
  const double implied_c0 =
      result.initial_temperature * -std::log(0.5) / 0.05;
  EXPECT_GT(implied_c0, result.scalarized * 0.1);
}

TEST(SaSolverTest, SolutionsAreAlwaysFeasible) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RandomInstanceParams params;
    params.num_transactions = 12;
    params.num_tables = 6;
    params.update_percent = 30;
    params.seed = seed;
    Instance instance = MakeRandomInstance(params);
    CostModel model(&instance, {.p = 8, .lambda = 0.1});
    for (int sites = 1; sites <= 3; ++sites) {
      SaOptions options;
      options.seed = seed;
      options.inner_iterations = 10;
      options.stale_rounds_limit = 3;
      SaResult result = SolveWithSa(model, sites, options);
      EXPECT_TRUE(ValidatePartitioning(instance, result.partitioning).ok())
          << "seed " << seed << " sites " << sites;
    }
  }
}

TEST(SaSolverTest, DisjointModeProducesDisjointSolutions) {
  Instance instance = MakeTpccInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  SaOptions options;
  options.seed = 2;
  options.allow_replication = false;
  options.inner_iterations = 10;
  options.stale_rounds_limit = 3;
  SaResult result = SolveWithSa(model, 2, options);
  EXPECT_TRUE(
      ValidatePartitioning(instance, result.partitioning, true).ok());
}

TEST(SaSolverTest, MoreSitesNeverWorseOnSeparableWorkload) {
  // With independent per-transaction tables and no writes, more sites can
  // only help (or tie): check SA discovers this monotonicity.
  InstanceBuilder builder("sep");
  std::vector<int> tables, attrs;
  for (int i = 0; i < 4; ++i) {
    int tbl = builder.AddTable("T" + std::to_string(i));
    int a = builder.AddAttribute(tbl, "a", 8);
    int b = builder.AddAttribute(tbl, "b", 8);
    (void)b;
    int t = builder.AddTransaction("X" + std::to_string(i));
    builder.AddQuery(t, "q" + std::to_string(i), QueryKind::kRead, 1.0, {a},
                     {{tbl, 1.0}});
  }
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());
  CostModel model(&instance.value(), {.p = 8, .lambda = 0.0});
  double previous = 1e300;
  for (int sites : {1, 2, 4}) {
    SaOptions options;
    options.seed = 9;
    SaResult result = SolveWithSa(model, sites, options);
    EXPECT_LE(result.cost, previous + 1e-9) << sites;
    previous = result.cost;
  }
}

TEST(SaSolverTest, WarmStartIsRespected) {
  Instance instance = MicroInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.0});
  Partitioning initial(2, 2, 2);
  initial.AssignTransaction(0, 0);
  initial.AssignTransaction(1, 1);
  initial.PlaceAttribute(0, 0);
  initial.PlaceAttribute(1, 1);
  SaOptions options;
  options.initial = &initial;
  options.inner_iterations = 1;
  options.stale_rounds_limit = 1;
  options.min_temperature_ratio = 0.5;  // freeze almost immediately
  SaResult result = SolveWithSa(model, 2, options);
  // Already optimal: the anneal must not return anything worse.
  EXPECT_DOUBLE_EQ(result.cost, 16);
}

TEST(SaSolverTest, TimeLimitIsHonored) {
  Instance instance = MakeTpccInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  SaOptions options;
  options.time_limit_seconds = 0.05;
  options.stale_rounds_limit = 1 << 20;
  options.min_temperature_ratio = 0;  // only the clock can stop it
  options.cooling = 0.999999;
  SaResult result = SolveWithSa(model, 3, options);
  EXPECT_LT(result.seconds, 2.0);
  EXPECT_TRUE(ValidatePartitioning(instance, result.partitioning).ok());
}

// The anneal path, pinned: the SA kernel must draw the same random numbers
// and add the same terms in the same order, so the iteration and
// acceptance counts and the objective bits stay exactly these. The 30 s
// budget is never reached, so no count depends on the clock.
//
// `reoptimizations` pins the findSolution memo: the steps it did not
// answer from a fixed half already solved in the call. It must fall below
// `iterations` where a half packs into the 64-bit key (every case but
// rndAt2x65@2, where |T| = 65 > 64 at one bit per transaction and
// |A|·|S| = 118 > 64). rndAt8x15@2 and table 0@3 fill a memo side, so they
// pin its start-over too, and the disjoint case repeats x assignments
// whose readers span sites, so the memo serves infeasible outcomes there.
TEST(SaSolverTest, AnnealPathIsPinned) {
  struct Case {
    const char* name;
    Instance instance;
    int sites;
    long iterations;
    long accepted;
    double cost;
    double scalarized;
    long reoptimizations;
    bool allow_replication = true;
  };
  StatusOr<Instance> rnd = MakeNamedRandomInstance("rndAt8x15");
  ASSERT_TRUE(rnd.ok());
  StatusOr<Instance> wide = MakeNamedRandomInstance("rndAt2x65");
  ASSERT_TRUE(wide.ok());
  StatusOr<std::vector<TableSubinstance>> tables =
      SplitInstanceByTable(MakeRandomInstance(Table1DefaultParams(100, 1)));
  ASSERT_TRUE(tables.ok());
  const Case cases[] = {
      {"TPC-C@3", MakeTpccInstance(), 3, 3880, 1861, 36572, 34622.4, 2168},
      {"rndAt8x15@2", std::move(*rnd), 2, 7040, 2786, 4088, 3969.8, 5819},
      {"table 0@3", (*tables)[0].instance, 3, 3480, 1207, 92, 88, 1516},
      {"table 1@3 disjoint", (*tables)[1].instance, 3, 4200, 3087, 336,
       314.40000000000003, 169, false},
      {"TPC-C@4", MakeTpccInstance(), 4, 4080, 1903, 36572, 34622.4, 2670},
      {"rndAt2x65@2", std::move(*wide), 2, 6560, 4386, 41172, 39054, 6560},
  };
  for (const Case& c : cases) {
    CostModel model(&c.instance, {.p = 8, .lambda = 0.1});
    SaOptions options;
    options.seed = 1;
    options.max_restarts = 6;
    options.time_limit_seconds = 30;
    options.allow_replication = c.allow_replication;
    const SaResult result = SolveWithSa(model, c.sites, options);
    EXPECT_EQ(result.iterations, c.iterations) << c.name;
    EXPECT_EQ(result.accepted, c.accepted) << c.name;
    EXPECT_EQ(result.cost, c.cost) << c.name;
    EXPECT_EQ(result.scalarized, c.scalarized) << c.name;
    EXPECT_EQ(result.reoptimizations, c.reoptimizations) << c.name;
  }
}

// time_limit_seconds 0 means unlimited, and an unlimited solve runs every
// restart, the single-site one included: on an instance where
// partitioning does not pay, the advice is then never worse than not
// partitioning.
TEST(SaSolverTest, UnlimitedBudgetRunsEveryRestart) {
  StatusOr<Instance> instance = MakeNamedRandomInstance("rndBt4x100");
  ASSERT_TRUE(instance.ok());
  CostModel model(&*instance, {.p = 8, .lambda = 0.1});
  SaOptions options;
  options.max_restarts = 6;
  int anneals = 0;
  options.progress = [&anneals](const SaProgress&) { ++anneals; };
  SolveWithSa(model, 3, options);
  EXPECT_EQ(anneals, 2 + options.max_restarts);

  AdviseRequest request;
  request.solver = kSolverSa;
  request.num_sites = 3;
  request.time_limit_seconds = 0;
  StatusOr<AdviseResponse> response = Advise(*instance, request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GE(response->result.reduction_percent, 0.0);
}

}  // namespace
}  // namespace vpart

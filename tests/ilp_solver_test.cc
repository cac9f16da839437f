#include <gtest/gtest.h>

#include "cost/cost_model.h"
#include "instances/random_instance.h"
#include "solver/exhaustive_solver.h"
#include "solver/formulation.h"
#include "solver/ilp_solver.h"
#include "solver/sa_solver.h"

namespace vpart {
namespace {

// T0 reads x, T1 reads y; with `t1_writes_x`, T1 also writes x.
Instance SplitInstance(bool t1_writes_x = false) {
  InstanceBuilder builder("split");
  int r = builder.AddTable("R");
  int s = builder.AddTable("S");
  int x = builder.AddAttribute(r, "x", 8);
  int y = builder.AddAttribute(s, "y", 8);
  int t0 = builder.AddTransaction("T0");
  int t1 = builder.AddTransaction("T1");
  builder.AddQuery(t0, "q0", QueryKind::kRead, 1.0, {x}, {{r, 1.0}});
  builder.AddQuery(t1, "q1", QueryKind::kRead, 1.0, {y}, {{s, 1.0}});
  if (t1_writes_x) {
    builder.AddQuery(t1, "w1", QueryKind::kWrite, 1.0, {x}, {{r, 1.0}});
  }
  auto instance = builder.Build();
  EXPECT_TRUE(instance.ok());
  return std::move(instance.value());
}

TEST(FormulationTest, VariableAndConstraintShape) {
  Instance instance = SplitInstance(/*t1_writes_x=*/true);
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  FormulationOptions options;
  options.num_sites = 2;
  IlpFormulation f = BuildIlpFormulation(model, options);

  // x: 2 txns x 2 sites; y: 2 attrs x 2 sites; m. The read pairs (T0, x)
  // and (T1, y) have no u: λ·c1 sits on x's objective and c3 on x in the
  // load rows. Only the write-only pair (T1, x) keeps a u per site.
  EXPECT_EQ(f.x_var.size(), 2u);
  EXPECT_EQ(f.y_var.size(), 2u);
  EXPECT_GE(f.m_var, 0);
  ASSERT_EQ(f.u_vars.size(), 2u);  // 1 (t,a) pair x 2 sites
  for (const auto& u : f.u_vars) {
    EXPECT_EQ(u.t, 1);
    EXPECT_EQ(u.a, 0);
    EXPECT_FALSE(f.model.variable(u.column).is_integer);
    EXPECT_EQ(f.model.variable(u.column).objective,
              f.lambda * model.c1(0, 1));
  }
  for (int t = 0; t < 2; ++t) {
    for (int s = 0; s < 2; ++s) {
      const auto& x = f.model.variable(f.x_var[t][s]);
      EXPECT_EQ(x.objective, f.lambda * model.c1(t, t)) << t << "," << s;
      EXPECT_TRUE(f.model.variable(f.y_var[t][s]).is_integer);
    }
  }
  bool x_in_load = false;
  for (const auto& row : f.model.constraints()) {
    if (row.name != "load_s1") continue;
    for (const auto& [column, coefficient] : row.terms) {
      if (column != f.x_var[1][1]) continue;
      x_in_load = true;
      EXPECT_EQ(coefficient, model.c3(1, 1));
    }
  }
  EXPECT_TRUE(x_in_load);
  // Sites are numbered by first use: T0 opens site 0, so x_{0,1} is fixed
  // to 0 by its bounds; the other x columns are binaries.
  EXPECT_EQ(f.model.variable(f.x_var[0][1]).upper, 0.0);
  EXPECT_TRUE(f.model.variable(f.x_var[0][0]).is_integer);
  EXPECT_TRUE(f.model.variable(f.x_var[1][0]).is_integer);
  EXPECT_TRUE(f.model.variable(f.x_var[1][1]).is_integer);
  EXPECT_FALSE(f.model.variable(f.m_var).is_integer);
}

TEST(FormulationTest, EncodeExtractRoundTrip) {
  Instance instance = SplitInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  FormulationOptions options;
  options.num_sites = 2;
  options.break_symmetry = false;
  IlpFormulation f = BuildIlpFormulation(model, options);

  Partitioning p(2, 2, 2);
  p.AssignTransaction(0, 1);
  p.AssignTransaction(1, 0);
  p.PlaceAttribute(0, 1);
  p.PlaceAttribute(1, 0);
  std::vector<double> encoded = f.EncodePartitioning(model, p);
  // The encoding is feasible for the model and extracts back to p.
  EXPECT_TRUE(f.model.CheckFeasible(encoded, 1e-6).ok());
  Partitioning back = f.ExtractPartitioning(encoded);
  EXPECT_TRUE(back == p);
  // Model objective of the encoding equals eq. (6).
  EXPECT_NEAR(f.model.EvaluateObjective(encoded),
              model.ScalarizedObjective(p), 1e-9);
}

TEST(FormulationTest, SymmetryBreakingRelabelsWarmStart) {
  Instance instance = SplitInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  FormulationOptions options;
  options.num_sites = 3;
  options.break_symmetry = false;
  IlpFormulation unbroken = BuildIlpFormulation(model, options);
  options.break_symmetry = true;
  IlpFormulation f = BuildIlpFormulation(model, options);

  // Labels out of first-use order: T0 on site 2, T1 on site 0, and a
  // replica of y on the unused site 1.
  Partitioning p(2, 2, 3);
  p.AssignTransaction(0, 2);
  p.AssignTransaction(1, 0);
  p.PlaceAttribute(0, 2);
  p.PlaceAttribute(1, 0);
  p.PlaceAttribute(1, 1);
  // Both models share their column layout; the first-use rows reject the
  // raw labelling, and the relabelled encoding satisfies them.
  EXPECT_FALSE(
      f.model.CheckFeasible(unbroken.EncodePartitioning(model, p), 1e-6)
          .ok());
  std::vector<double> encoded = f.EncodePartitioning(model, p);
  EXPECT_TRUE(f.model.CheckFeasible(encoded, 1e-6).ok());
  EXPECT_NEAR(f.model.EvaluateObjective(encoded),
              model.ScalarizedObjective(p), 1e-9);

  // Sites in order of first use (T0 → 0, T1 → 1), then the unused site.
  Partitioning relabelled(2, 2, 3);
  relabelled.AssignTransaction(0, 0);
  relabelled.AssignTransaction(1, 1);
  relabelled.PlaceAttribute(0, 0);
  relabelled.PlaceAttribute(1, 1);
  relabelled.PlaceAttribute(1, 2);
  EXPECT_TRUE(f.ExtractPartitioning(encoded) == relabelled);
}

TEST(IlpSolverTest, SolvesTheObviousSplitOptimally) {
  Instance instance = SplitInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.0});
  IlpSolverOptions options;
  options.formulation.num_sites = 2;
  options.formulation.load_balancing = false;
  options.mip.relative_gap = 0;
  IlpSolveResult result = SolveWithIlp(model, options);
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_DOUBLE_EQ(result.cost, 16);
  EXPECT_TRUE(
      ValidatePartitioning(instance, *result.partitioning).ok());
  // The node-LP telemetry rides along from the branch & bound.
  EXPECT_GT(result.proof.lp_stats.lp_solves, 0);
  EXPECT_GE(result.proof.lp_stats.cold_starts, 1);
}

TEST(IlpSolverTest, DisjointModeEnforced) {
  Instance instance = SplitInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.0});
  IlpSolverOptions options;
  options.formulation.num_sites = 2;
  options.formulation.allow_replication = false;
  options.formulation.load_balancing = false;
  options.mip.relative_gap = 0;
  IlpSolveResult result = SolveWithIlp(model, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(
      ValidatePartitioning(instance, *result.partitioning, true).ok());
}

TEST(IlpSolverTest, WarmStartBoundsTheResult) {
  Instance instance = SplitInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.0});
  SaOptions sa;
  sa.seed = 5;
  SaResult warm = SolveWithSa(model, 2, sa);
  IlpSolverOptions options;
  options.formulation.num_sites = 2;
  options.formulation.load_balancing = false;
  options.warm_start = &warm.partitioning;
  options.mip.relative_gap = 0;
  IlpSolveResult result = SolveWithIlp(model, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.cost, warm.cost + 1e-9);
}

// The central cross-validation property: on small random instances the ILP
// (gap 0) must match the exhaustive optimum of objective (4) exactly.
TEST(IlpSolverTest, MatchesExhaustiveOptimumOnRandomInstances) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomInstanceParams params;
    params.num_transactions = 4;
    params.num_tables = 3;
    params.max_attributes_per_table = 4;
    params.update_percent = 25;
    params.seed = seed;
    Instance instance = MakeRandomInstance(params);
    CostModel model(&instance, {.p = 8, .lambda = 0.0});

    ExhaustiveOptions ex;
    ex.num_sites = 2;
    ExhaustiveResult truth = SolveExhaustively(model, ex);
    ASSERT_TRUE(truth.exact) << "seed " << seed;

    IlpSolverOptions options;
    options.formulation.num_sites = 2;
    options.formulation.load_balancing = false;
    options.mip.relative_gap = 0;
    options.mip.time_limit_seconds = 60;
    IlpSolveResult result = SolveWithIlp(model, options);
    ASSERT_EQ(result.status, MipStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(result.cost, truth.cost, 1e-6 * (1 + truth.cost))
        << "seed " << seed;
  }
}

// Same property in disjoint mode.
TEST(IlpSolverTest, MatchesExhaustiveOptimumDisjoint) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RandomInstanceParams params;
    params.num_transactions = 4;
    params.num_tables = 3;
    params.max_attributes_per_table = 4;
    params.update_percent = 25;
    params.seed = 100 + seed;
    Instance instance = MakeRandomInstance(params);
    CostModel model(&instance, {.p = 8, .lambda = 0.0});

    ExhaustiveOptions ex;
    ex.num_sites = 2;
    ex.allow_replication = false;
    ExhaustiveResult truth = SolveExhaustively(model, ex);
    ASSERT_TRUE(truth.partitioning.has_value());

    IlpSolverOptions options;
    options.formulation.num_sites = 2;
    options.formulation.allow_replication = false;
    options.formulation.load_balancing = false;
    options.mip.relative_gap = 0;
    options.mip.time_limit_seconds = 60;
    IlpSolveResult result = SolveWithIlp(model, options);
    ASSERT_EQ(result.status, MipStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(result.cost, truth.cost, 1e-6 * (1 + truth.cost))
        << "seed " << seed;
  }
}

TEST(ExhaustiveSolverTest, SingleSiteMatchesBaseline) {
  Instance instance = SplitInstance();
  CostModel model(&instance, {.p = 8, .lambda = 0.0});
  ExhaustiveOptions ex;
  ex.num_sites = 1;
  ExhaustiveResult result = SolveExhaustively(model, ex);
  ASSERT_TRUE(result.partitioning.has_value());
  EXPECT_EQ(result.candidates, 1);
  EXPECT_DOUBLE_EQ(result.cost,
                   model.Objective(SingleSiteBaseline(instance, 1)));
}

TEST(ExhaustiveSolverTest, SymmetryReductionCountsRestrictedGrowth) {
  // 3 transactions, 3 sites: restricted growth strings = Bell-ish count 5
  // for |T|=3 (111,112,121,122,123 -> 5 assignments).
  InstanceBuilder builder("count");
  int r = builder.AddTable("R");
  int x = builder.AddAttribute(r, "x", 4);
  for (int i = 0; i < 3; ++i) {
    int t = builder.AddTransaction("T" + std::to_string(i));
    builder.AddQuery(t, "q" + std::to_string(i), QueryKind::kRead, 1.0, {x},
                     {{r, 1.0}});
  }
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());
  CostModel model(&instance.value(), {.p = 8, .lambda = 0.0});
  ExhaustiveOptions ex;
  ex.num_sites = 3;
  ExhaustiveResult result = SolveExhaustively(model, ex);
  EXPECT_EQ(result.candidates, 5);
}

TEST(ExhaustiveSolverTest, ReplicationNeverWorseThanDisjoint) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomInstanceParams params;
    params.num_transactions = 5;
    params.num_tables = 3;
    params.max_attributes_per_table = 5;
    params.update_percent = 30;
    params.seed = 200 + seed;
    Instance instance = MakeRandomInstance(params);
    CostModel model(&instance, {.p = 8, .lambda = 0.0});
    ExhaustiveOptions with_repl;
    with_repl.num_sites = 2;
    ExhaustiveOptions without = with_repl;
    without.allow_replication = false;
    ExhaustiveResult a = SolveExhaustively(model, with_repl);
    ExhaustiveResult b = SolveExhaustively(model, without);
    ASSERT_TRUE(a.partitioning.has_value());
    ASSERT_TRUE(b.partitioning.has_value());
    EXPECT_LE(a.cost, b.cost + 1e-9) << "seed " << seed;
  }
}

// SA can never beat a proven optimum; it should get close on tiny inputs.
TEST(SaVsExhaustiveTest, SaIsBoundedByOptimum) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomInstanceParams params;
    params.num_transactions = 5;
    params.num_tables = 4;
    params.max_attributes_per_table = 5;
    params.seed = 300 + seed;
    Instance instance = MakeRandomInstance(params);
    CostModel model(&instance, {.p = 8, .lambda = 0.0});
    ExhaustiveOptions ex;
    ex.num_sites = 2;
    ExhaustiveResult truth = SolveExhaustively(model, ex);
    SaOptions sa;
    sa.seed = seed;
    SaResult result = SolveWithSa(model, 2, sa);
    EXPECT_GE(result.cost, truth.cost - 1e-9) << "seed " << seed;
    EXPECT_LE(result.cost, truth.cost * 1.5 + 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vpart

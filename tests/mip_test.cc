#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "mip/branch_and_bound.h"
#include "util/rng.h"

namespace vpart {
namespace {

constexpr double kTol = 1e-6;

MipOptions Exact() {
  MipOptions options;
  options.relative_gap = 0.0;
  options.time_limit_seconds = 30;
  return options;
}

// 0/1 knapsack: max 10x0+13x1+7x2+8x3 s.t. 3x0+4x1+2x2+3x3 <= 7.
// Optimum: {x0, x1} with weight 7 and value 23.
TEST(MipTest, KnapsackOptimum) {
  LpModel model;
  int x0 = model.AddBinaryVariable(-10);
  int x1 = model.AddBinaryVariable(-13);
  int x2 = model.AddBinaryVariable(-7);
  int x3 = model.AddBinaryVariable(-8);
  model.AddConstraint(ConstraintSense::kLessEqual, 7,
                      {{x0, 3}, {x1, 4}, {x2, 2}, {x3, 3}});
  MipResult result = SolveMip(model, Exact());
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, -23, kTol);
  EXPECT_NEAR(result.values[x0], 1, kTol);
  EXPECT_NEAR(result.values[x1], 1, kTol);
}

// Assignment problem (3x3), cost matrix with known optimum 5+3+4? rows to
// columns: c = [[5,9,1],[10,3,2],[8,7,4]] -> optimal 1 + 3 + 8 = 12.
TEST(MipTest, AssignmentProblem) {
  const double c[3][3] = {{5, 9, 1}, {10, 3, 2}, {8, 7, 4}};
  LpModel model;
  int v[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) v[i][j] = model.AddBinaryVariable(c[i][j]);
  }
  for (int i = 0; i < 3; ++i) {
    model.AddConstraint(ConstraintSense::kEqual, 1,
                        {{v[i][0], 1}, {v[i][1], 1}, {v[i][2], 1}});
    model.AddConstraint(ConstraintSense::kEqual, 1,
                        {{v[0][i], 1}, {v[1][i], 1}, {v[2][i], 1}});
  }
  MipResult result = SolveMip(model, Exact());
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, 12, kTol);
}

TEST(MipTest, InfeasibleIsDetected) {
  LpModel model;
  int x = model.AddBinaryVariable(1);
  int y = model.AddBinaryVariable(1);
  model.AddConstraint(ConstraintSense::kGreaterEqual, 3, {{x, 1}, {y, 1}});
  MipResult result = SolveMip(model, Exact());
  EXPECT_EQ(result.status, MipStatus::kInfeasible);
  EXPECT_FALSE(result.has_incumbent());
}

// Integrality matters: LP relaxation of a cover is fractional.
TEST(MipTest, IntegralityGapClosed) {
  // min x+y+z s.t. x+y>=1, y+z>=1, x+z>=1. LP opt = 1.5, MIP opt = 2.
  LpModel model;
  int x = model.AddBinaryVariable(1);
  int y = model.AddBinaryVariable(1);
  int z = model.AddBinaryVariable(1);
  model.AddConstraint(ConstraintSense::kGreaterEqual, 1, {{x, 1}, {y, 1}});
  model.AddConstraint(ConstraintSense::kGreaterEqual, 1, {{y, 1}, {z, 1}});
  model.AddConstraint(ConstraintSense::kGreaterEqual, 1, {{x, 1}, {z, 1}});
  MipResult result = SolveMip(model, Exact());
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, 2, kTol);
  EXPECT_NEAR(result.proof.best_bound, 2, 1e-4);
}

TEST(MipTest, MixedIntegerContinuous) {
  // min -x - 0.5c, x binary, c in [0, 10], x + c <= 2.5.
  // Optimum: x=1, c=1.5 -> -1.75.
  LpModel model;
  int x = model.AddBinaryVariable(-1);
  int c = model.AddVariable(0, 10, -0.5);
  model.AddConstraint(ConstraintSense::kLessEqual, 2.5, {{x, 1}, {c, 1}});
  MipResult result = SolveMip(model, Exact());
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, -1.75, kTol);
  EXPECT_NEAR(result.values[x], 1, kTol);
  EXPECT_NEAR(result.values[c], 1.5, kTol);
}

TEST(MipTest, WarmStartAcceptedAndImproved) {
  LpModel model;
  int x0 = model.AddBinaryVariable(-10);
  int x1 = model.AddBinaryVariable(-13);
  int x2 = model.AddBinaryVariable(-7);
  int x3 = model.AddBinaryVariable(-8);
  model.AddConstraint(ConstraintSense::kLessEqual, 7,
                      {{x0, 3}, {x1, 4}, {x2, 2}, {x3, 3}});
  std::vector<double> warm = {1, 0, 1, 0};  // value 17, feasible
  MipOptions options = Exact();
  options.initial_solution = &warm;
  MipResult result = SolveMip(model, options);
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, -23, kTol);
}

TEST(MipTest, InfeasibleWarmStartIgnored) {
  LpModel model;
  int x = model.AddBinaryVariable(-1);
  model.AddConstraint(ConstraintSense::kLessEqual, 0, {{x, 1}});
  std::vector<double> warm = {1};  // violates the row
  MipOptions options = Exact();
  options.initial_solution = &warm;
  MipResult result = SolveMip(model, options);
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, 0, kTol);
}

TEST(MipTest, NodeLimitReportsIncumbentAsFeasible) {
  // The root relaxation is fractional (x = (1, .5, 1, 0), obj -23.5), so a
  // 1-node limit cannot prove optimality; the warm start (-17) stays the
  // incumbent and the gap is positive.
  LpModel model;
  int x0 = model.AddBinaryVariable(-10);
  int x1 = model.AddBinaryVariable(-13);
  int x2 = model.AddBinaryVariable(-7);
  int x3 = model.AddBinaryVariable(-8);
  model.AddConstraint(ConstraintSense::kLessEqual, 7,
                      {{x0, 3}, {x1, 4}, {x2, 2}, {x3, 3}});
  std::vector<double> warm = {1, 0, 1, 0};
  MipOptions options = Exact();
  options.max_nodes = 1;
  options.enable_dive = false;  // keep the warm start the only incumbent
  options.initial_solution = &warm;
  MipResult result = SolveMip(model, options);
  EXPECT_EQ(result.status, MipStatus::kFeasible);
  EXPECT_TRUE(result.has_incumbent());
  EXPECT_NEAR(result.objective, -17, kTol);
  EXPECT_GT(GapPercent(result.objective, result.proof.best_bound), 0.0);
}

TEST(MipTest, RootDiveFindsIncumbentWithoutWarmStart) {
  // Same knapsack, no warm start, one node: the root dive must still
  // produce some feasible incumbent.
  LpModel model;
  int x0 = model.AddBinaryVariable(-10);
  int x1 = model.AddBinaryVariable(-13);
  int x2 = model.AddBinaryVariable(-7);
  int x3 = model.AddBinaryVariable(-8);
  model.AddConstraint(ConstraintSense::kLessEqual, 7,
                      {{x0, 3}, {x1, 4}, {x2, 2}, {x3, 3}});
  MipOptions options = Exact();
  options.max_nodes = 1;
  MipResult result = SolveMip(model, options);
  EXPECT_TRUE(result.has_incumbent());
  EXPECT_TRUE(model.CheckFeasible(result.values, 1e-6).ok());
  EXPECT_LE(result.objective, -17 + kTol);  // dives find a decent solution
}

TEST(MipTest, PureLpNeedsNoBranching) {
  LpModel model;
  int x = model.AddVariable(0, 4, -1);
  model.AddConstraint(ConstraintSense::kLessEqual, 3, {{x, 1}});
  MipResult result = SolveMip(model, Exact());
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, -3, kTol);
  EXPECT_EQ(result.proof.nodes, 1);
}

TEST(MipTest, GapToleranceStopsEarly) {
  // With a huge allowed gap, any incumbent terminates the search.
  LpModel model;
  int x0 = model.AddBinaryVariable(-10);
  int x1 = model.AddBinaryVariable(-13);
  model.AddConstraint(ConstraintSense::kLessEqual, 4, {{x0, 3}, {x1, 4}});
  MipOptions options = Exact();
  options.relative_gap = 0.9;
  MipResult result = SolveMip(model, options);
  EXPECT_TRUE(result.has_incumbent());
}

TEST(MipTest, WarmStartTelemetryIsPopulated) {
  LpModel model;
  int x0 = model.AddBinaryVariable(-10);
  int x1 = model.AddBinaryVariable(-13);
  int x2 = model.AddBinaryVariable(-7);
  int x3 = model.AddBinaryVariable(-8);
  model.AddConstraint(ConstraintSense::kLessEqual, 7,
                      {{x0, 3}, {x1, 4}, {x2, 2}, {x3, 3}});
  MipResult result = SolveMip(model, Exact());
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  // Every node LP is accounted for, the root is cold, children reoptimize
  // off the parent basis.
  EXPECT_GT(result.proof.lp_stats.lp_solves, 0);
  EXPECT_GE(result.proof.lp_stats.cold_starts, 1);
  EXPECT_GT(result.proof.lp_stats.warm_starts, 0);
  EXPECT_GT(result.proof.lp_stats.lp_seconds, 0.0);
}

TEST(MipTest, ColdModeDisablesWarmStarts) {
  LpModel model;
  int x0 = model.AddBinaryVariable(-10);
  int x1 = model.AddBinaryVariable(-13);
  model.AddConstraint(ConstraintSense::kLessEqual, 4, {{x0, 3}, {x1, 4}});
  MipOptions options = Exact();
  options.use_warm_start = false;
  MipResult result = SolveMip(model, options);
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_EQ(result.proof.lp_stats.warm_starts, 0);
  EXPECT_EQ(result.proof.lp_stats.dual_iterations, 0);
  EXPECT_EQ(result.proof.lp_stats.cold_starts,
            result.proof.lp_stats.lp_solves);
}

// One worker searches on the caller's thread: every progress event (node
// ticks and incumbents) fires there, so a serial proof starts no thread.
TEST(MipTest, OneWorkerRunsOnTheCallersThread) {
  LpModel model;
  int x0 = model.AddBinaryVariable(-10);
  int x1 = model.AddBinaryVariable(-13);
  int x2 = model.AddBinaryVariable(-7);
  int x3 = model.AddBinaryVariable(-8);
  model.AddConstraint(ConstraintSense::kLessEqual, 7,
                      {{x0, 3}, {x1, 4}, {x2, 2}, {x3, 3}});
  MipOptions options = Exact();
  options.progress_node_interval = 1;
  long events = 0;
  bool off_thread = false;
  const std::thread::id caller = std::this_thread::get_id();
  options.progress = [&](const MipProgress&) {
    ++events;
    off_thread = off_thread || std::this_thread::get_id() != caller;
  };
  const MipResult result = SolveMip(model, options);
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_GE(events, result.proof.nodes);
  EXPECT_FALSE(off_thread);
}

// Warm-started and cold searches must prove the same optimum (the trees may
// differ: dual reoptimization can land on a different optimal vertex of a
// degenerate relaxation, changing the branching order but never the value).
TEST(MipTest, WarmAndColdSearchesAgreeOnRandomInstances) {
  Rng rng(271828);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 3 + static_cast<int>(rng.NextBounded(5));
    LpModel model;
    for (int j = 0; j < n; ++j) {
      model.AddBinaryVariable(std::round((rng.NextDouble() * 20 - 10) * 4) /
                              4);
    }
    const int m = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < m; ++i) {
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < n; ++j) {
        terms.emplace_back(j, std::round(rng.NextDouble() * 5 * 2) / 2);
      }
      model.AddConstraint(ConstraintSense::kLessEqual,
                          std::round(rng.NextDouble() * n * 2.5 * 2) / 2,
                          std::move(terms));
    }
    MipOptions warm_options = Exact();
    MipOptions cold_options = Exact();
    cold_options.use_warm_start = false;
    MipResult warm = SolveMip(model, warm_options);
    MipResult cold = SolveMip(model, cold_options);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    if (warm.has_incumbent()) {
      EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "trial " << trial;
    }
  }
}

// Randomized: B&B equals brute force on small random binary programs.
TEST(MipTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBounded(5));  // up to 6 vars
    LpModel model;
    std::vector<double> obj(n);
    for (int j = 0; j < n; ++j) {
      obj[j] = std::round((rng.NextDouble() * 20 - 10) * 4) / 4;
      model.AddBinaryVariable(obj[j]);
    }
    const int m = 1 + static_cast<int>(rng.NextBounded(3));
    std::vector<std::vector<double>> rows(m, std::vector<double>(n));
    std::vector<double> rhs(m);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        rows[i][j] = std::round(rng.NextDouble() * 5 * 2) / 2;
      }
      rhs[i] = std::round(rng.NextDouble() * n * 2.5 * 2) / 2;
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < n; ++j) terms.emplace_back(j, rows[i][j]);
      model.AddConstraint(ConstraintSense::kLessEqual, rhs[i],
                          std::move(terms));
    }
    // Brute force.
    double best = 1e18;
    for (int mask = 0; mask < (1 << n); ++mask) {
      bool ok = true;
      for (int i = 0; i < m && ok; ++i) {
        double lhs = 0;
        for (int j = 0; j < n; ++j) {
          if (mask & (1 << j)) lhs += rows[i][j];
        }
        ok = lhs <= rhs[i] + 1e-9;
      }
      if (!ok) continue;
      double value = 0;
      for (int j = 0; j < n; ++j) {
        if (mask & (1 << j)) value += obj[j];
      }
      best = std::min(best, value);
    }
    MipResult result = SolveMip(model, Exact());
    ASSERT_EQ(result.status, MipStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(result.objective, best, 1e-5) << "trial " << trial;
  }
}

}  // namespace
}  // namespace vpart

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "lp/simplex.h"
#include "mip/branch_and_bound.h"
#include "util/rng.h"

namespace vpart {
namespace {

MipOptions ExactOptions() {
  MipOptions options;
  options.relative_gap = 0;
  return options;
}

// 2-variable LPs can be brute-forced geometrically: the optimum lies on a
// vertex = intersection of two active constraints (or bounds). Enumerate
// all candidate points and compare against the simplex.
TEST(SimplexStressTest, TwoVariableVertexEnumeration) {
  Rng rng(314);
  int solved = 0;
  for (int trial = 0; trial < 200; ++trial) {
    LpModel model;
    const double lo0 = 0, hi0 = 1 + rng.NextDouble() * 9;
    const double lo1 = 0, hi1 = 1 + rng.NextDouble() * 9;
    const double c0 = rng.NextDouble() * 4 - 2;
    const double c1 = rng.NextDouble() * 4 - 2;
    model.AddVariable(lo0, hi0, c0);
    model.AddVariable(lo1, hi1, c1);
    const int m = 1 + static_cast<int>(rng.NextBounded(4));
    std::vector<std::array<double, 3>> rows;  // a0, a1, b  (a·x <= b)
    for (int i = 0; i < m; ++i) {
      const double a0 = rng.NextDouble() * 2 - 0.5;
      const double a1 = rng.NextDouble() * 2 - 0.5;
      const double b = rng.NextDouble() * 8;
      rows.push_back({a0, a1, b});
      model.AddConstraint(ConstraintSense::kLessEqual, b,
                          {{0, a0}, {1, a1}});
    }

    // Candidate vertices: intersections of every pair of "lines" drawn
    // from constraints and box edges.
    std::vector<std::array<double, 3>> lines = rows;  // as equalities
    lines.push_back({1, 0, lo0});
    lines.push_back({1, 0, hi0});
    lines.push_back({0, 1, lo1});
    lines.push_back({0, 1, hi1});
    double best = 1e300;
    auto consider = [&](double x0, double x1) {
      if (x0 < lo0 - 1e-9 || x0 > hi0 + 1e-9 || x1 < lo1 - 1e-9 ||
          x1 > hi1 + 1e-9) {
        return;
      }
      for (const auto& [a0, a1, b] : rows) {
        if (a0 * x0 + a1 * x1 > b + 1e-7) return;
      }
      best = std::min(best, c0 * x0 + c1 * x1);
    };
    for (size_t i = 0; i < lines.size(); ++i) {
      for (size_t j = i + 1; j < lines.size(); ++j) {
        const double det =
            lines[i][0] * lines[j][1] - lines[j][0] * lines[i][1];
        if (std::abs(det) < 1e-9) continue;
        const double x0 =
            (lines[i][2] * lines[j][1] - lines[j][2] * lines[i][1]) / det;
        const double x1 =
            (lines[i][0] * lines[j][2] - lines[j][0] * lines[i][2]) / det;
        consider(x0, x1);
      }
    }

    LpResult result = SolveLp(model);
    if (best > 1e299) {
      // No feasible vertex found by enumeration: the LP must agree.
      EXPECT_EQ(result.status, LpStatus::kInfeasible) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(result.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(result.objective, best, 1e-5 * (1 + std::abs(best)))
        << "trial " << trial;
    ++solved;
  }
  EXPECT_GT(solved, 150);  // the vast majority must be feasible + checked
}

// Equality-heavy systems: random nonsingular triangular systems have a
// unique solution; the simplex must find exactly it.
TEST(SimplexStressTest, TriangularEqualitySystems) {
  Rng rng(2718);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBounded(6));
    LpModel model;
    std::vector<double> solution(n);
    for (int j = 0; j < n; ++j) {
      solution[j] = rng.NextDouble() * 4;  // target point, within bounds
      model.AddVariable(-10, 20, rng.NextDouble() - 0.5);
    }
    // Lower-triangular rows with unit diagonal evaluated at `solution`.
    for (int i = 0; i < n; ++i) {
      std::vector<std::pair<int, double>> terms;
      double rhs = 0;
      for (int j = 0; j <= i; ++j) {
        const double a = (j == i) ? 1.0 : rng.NextDouble() * 2 - 1;
        terms.emplace_back(j, a);
        rhs += a * solution[j];
      }
      model.AddConstraint(ConstraintSense::kEqual, rhs, std::move(terms));
    }
    LpResult result = SolveLp(model);
    ASSERT_EQ(result.status, LpStatus::kOptimal) << "trial " << trial;
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(result.values[j], solution[j], 1e-6) << trial << "/" << j;
    }
  }
}

// A pure-continuous model must give identical answers through SolveLp and
// SolveMip (the MIP layer should be a no-op).
TEST(MipStressTest, ContinuousModelsPassThrough) {
  Rng rng(999);
  for (int trial = 0; trial < 20; ++trial) {
    LpModel model;
    const int n = 2 + static_cast<int>(rng.NextBounded(4));
    for (int j = 0; j < n; ++j) {
      model.AddVariable(0, 1 + rng.NextDouble() * 3,
                        rng.NextDouble() * 2 - 1);
    }
    for (int i = 0; i < 3; ++i) {
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < n; ++j) terms.emplace_back(j, rng.NextDouble());
      model.AddConstraint(ConstraintSense::kLessEqual,
                          1 + rng.NextDouble() * 4, std::move(terms));
    }
    LpResult lp = SolveLp(model);
    MipResult mip = SolveMip(model, ExactOptions());
    ASSERT_EQ(lp.status, LpStatus::kOptimal);
    ASSERT_EQ(mip.status, MipStatus::kOptimal);
    EXPECT_NEAR(lp.objective, mip.objective,
                1e-7 * (1 + std::abs(lp.objective)));
    EXPECT_EQ(mip.proof.nodes, 1);
  }
}

// Set partitioning with known optimum: cover {1..4} by subsets.
TEST(MipStressTest, SetPartitioning) {
  // Subsets: {1,2}:3, {3,4}:3, {1,3}:4, {2,4}:4, {1,2,3,4}:7, {1}:2,
  // {2}:2, {3}:2, {4}:2. Optimal exact cover cost: {1,2}+{3,4} = 6.
  struct Sub {
    std::vector<int> members;
    double cost;
  };
  const std::vector<Sub> subs = {
      {{0, 1}, 3}, {{2, 3}, 3}, {{0, 2}, 4}, {{1, 3}, 4},
      {{0, 1, 2, 3}, 7}, {{0}, 2}, {{1}, 2}, {{2}, 2}, {{3}, 2}};
  LpModel model;
  for (const Sub& sub : subs) model.AddBinaryVariable(sub.cost);
  for (int element = 0; element < 4; ++element) {
    std::vector<std::pair<int, double>> terms;
    for (size_t j = 0; j < subs.size(); ++j) {
      for (int member : subs[j].members) {
        if (member == element) terms.emplace_back(static_cast<int>(j), 1.0);
      }
    }
    model.AddConstraint(ConstraintSense::kEqual, 1.0, std::move(terms));
  }
  MipResult result = SolveMip(model, ExactOptions());
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, 6, 1e-6);
}

// Many equal-cost symmetric solutions: B&B must still terminate and prove.
TEST(MipStressTest, SymmetricEqualityTerminates) {
  LpModel model;
  const int n = 10;
  for (int j = 0; j < n; ++j) model.AddBinaryVariable(1.0);
  std::vector<std::pair<int, double>> terms;
  for (int j = 0; j < n; ++j) terms.emplace_back(j, 1.0);
  model.AddConstraint(ConstraintSense::kEqual, 5.0, std::move(terms));
  MipResult result = SolveMip(model, ExactOptions());
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.objective, 5, 1e-6);
}

}  // namespace
}  // namespace vpart

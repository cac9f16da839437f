// Parameterized property sweeps across the solver stack: the invariants
// here must hold for every instance/configuration cell, not just the
// hand-picked cases in the per-module tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include "cost/cost_model.h"
#include "instances/random_instance.h"
#include "solver/attribute_groups.h"
#include "solver/exhaustive_solver.h"
#include "solver/ilp_solver.h"
#include "solver/latency.h"
#include "solver/sa_solver.h"
#include "util/rng.h"

namespace vpart {
namespace {

Instance SmallInstance(uint64_t seed, double update_percent) {
  RandomInstanceParams params;
  params.num_transactions = 4;
  params.num_tables = 3;
  params.max_attributes_per_table = 5;
  params.update_percent = update_percent;
  params.seed = seed;
  return MakeRandomInstance(params);
}

// --- exhaustive vs ILP vs SA across a (seed, sites, update%) grid ---------

class SolverAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SolverAgreementTest, IlpMatchesExhaustiveAndBoundsSa) {
  const auto [seed, sites, update_percent] = GetParam();
  Instance instance = SmallInstance(1000 + seed, update_percent);
  CostModel model(&instance, {.p = 8, .lambda = 0.0});

  ExhaustiveOptions ex;
  ex.num_sites = sites;
  ExhaustiveResult truth = SolveExhaustively(model, ex);
  ASSERT_TRUE(truth.exact);
  ASSERT_TRUE(
      ValidatePartitioning(instance, *truth.partitioning).ok());

  IlpSolverOptions ilp;
  ilp.formulation.num_sites = sites;
  ilp.formulation.load_balancing = false;
  ilp.mip.relative_gap = 0;
  ilp.mip.time_limit_seconds = 60;
  IlpSolveResult result = SolveWithIlp(model, ilp);
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_NEAR(result.cost, truth.cost, 1e-6 * (1 + std::abs(truth.cost)));

  SaOptions sa;
  sa.seed = seed;
  SaResult heuristic = SolveWithSa(model, sites, sa);
  EXPECT_GE(heuristic.cost, truth.cost - 1e-9);
  EXPECT_TRUE(
      ValidatePartitioning(instance, heuristic.partitioning).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolverAgreementTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),   // seed
                       ::testing::Values(2, 3, 4),       // sites
                       ::testing::Values(0, 25, 60)),    // update %
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_sites" +
             std::to_string(std::get<1>(info.param)) + "_upd" +
             std::to_string(std::get<2>(info.param));
    });

// --- grouping exactness across the same kind of grid ----------------------

class GroupingInvarianceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GroupingInvarianceTest, ReducedSolveCostsMatchDirectSolve) {
  const auto [seed, sites] = GetParam();
  RandomInstanceParams params;
  params.num_transactions = 5;
  params.num_tables = 3;
  params.max_attributes_per_table = 8;
  params.update_percent = 20;
  params.seed = 2000 + seed;
  Instance instance = MakeRandomInstance(params);
  auto grouping = BuildAttributeGrouping(instance);
  ASSERT_TRUE(grouping.ok());

  CostParams cost_params{.p = 8, .lambda = 0.0};
  CostModel direct(&instance, cost_params);
  CostModel reduced(&grouping->reduced, cost_params);

  ExhaustiveOptions ex;
  ex.num_sites = sites;
  ExhaustiveResult a = SolveExhaustively(direct, ex);
  ExhaustiveResult b = SolveExhaustively(reduced, ex);
  ASSERT_TRUE(a.exact && b.exact);
  EXPECT_NEAR(a.cost, b.cost, 1e-6 * (1 + std::abs(a.cost)));

  Partitioning expanded = grouping->ExpandPartitioning(*b.partitioning);
  EXPECT_TRUE(ValidatePartitioning(instance, expanded).ok());
  EXPECT_NEAR(direct.Objective(expanded), b.cost,
              1e-6 * (1 + std::abs(b.cost)));
}

INSTANTIATE_TEST_SUITE_P(Grid, GroupingInvarianceTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                                            ::testing::Values(2, 3)));

// --- SA behavioural properties across seeds -------------------------------

class SaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SaPropertyTest, DeterministicFeasibleAndSelfConsistent) {
  const int seed = GetParam();
  RandomInstanceParams params;
  params.num_transactions = 10;
  params.num_tables = 5;
  params.update_percent = 30;
  params.seed = 3000 + seed;
  Instance instance = MakeRandomInstance(params);
  CostModel model(&instance, {.p = 8, .lambda = 0.1});

  SaOptions options;
  options.seed = seed;
  options.inner_iterations = 12;
  options.stale_rounds_limit = 4;
  SaResult a = SolveWithSa(model, 3, options);
  SaResult b = SolveWithSa(model, 3, options);

  // Deterministic for a fixed seed.
  EXPECT_TRUE(a.partitioning == b.partitioning);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  // Feasible and self-consistent: the reported numbers re-evaluate.
  EXPECT_TRUE(ValidatePartitioning(instance, a.partitioning).ok());
  EXPECT_DOUBLE_EQ(a.cost, model.Objective(a.partitioning));
  EXPECT_DOUBLE_EQ(a.scalarized, model.ScalarizedObjective(a.partitioning));
  // The anneal returns nothing worse than the trivial single-site layout's
  // scalarized objective when one site is in play; with several sites the
  // baseline remains a member of the search space, so the best found must
  // not exceed its scalarized value (the initial solution dominates it).
  Partitioning baseline = SingleSiteBaseline(instance, 3);
  EXPECT_LE(a.scalarized,
            model.ScalarizedObjective(baseline) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaPropertyTest,
                         ::testing::Range(1, 9));

// --- formulation integrity across option combinations ---------------------

// Sites appear in order of first use: each transaction's site is at most
// one past the highest site any earlier transaction uses.
bool InFirstUseOrder(const Partitioning& p) {
  int used = 0;
  for (int t = 0; t < p.num_transactions(); ++t) {
    if (p.SiteOfTransaction(t) > used) return false;
    used = std::max(used, p.SiteOfTransaction(t) + 1);
  }
  return true;
}

class FormulationPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, bool, bool, bool>> {};

// Every partitioning encodes to a feasible point of eq. (7) whose model
// objective is the cost model's, with or without the first-use rows: the
// read-pair fold and the site numbering both hold at every integer point.
TEST_P(FormulationPropertyTest, EncodingsAreFeasibleAndConsistent) {
  const auto [sites, replication, load_balancing, directional] = GetParam();
  RandomInstanceParams params;
  params.num_transactions = 12;
  params.num_tables = 4;
  params.max_attributes_per_table = 5;
  params.update_percent = 30;
  params.seed = 42;
  Instance instance = MakeRandomInstance(params);
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  const int num_t = instance.num_transactions();
  const int num_a = instance.num_attributes();

  // Without replication, transactions that share a read attribute share a
  // site: label each such group by its lowest member (4 groups here).
  std::vector<int> group(num_t);
  std::iota(group.begin(), group.end(), 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (int a = 0; a < num_a; ++a) {
      int low = num_t;
      for (int t = 0; t < num_t; ++t) {
        if (instance.phi(a, t)) low = std::min(low, group[t]);
      }
      for (int t = 0; t < num_t; ++t) {
        if (instance.phi(a, t) && group[t] != low) {
          group[t] = low;
          changed = true;
        }
      }
    }
  }

  // The single-site baseline, then random x (one site per group when
  // disjoint) with its optimal y, plus random extra replicas when
  // replication is allowed.
  std::vector<Partitioning> encodings = {SingleSiteBaseline(instance, sites)};
  Rng rng(7 * sites + 1);
  while (encodings.size() < 18) {
    std::vector<int> site(num_t);
    for (int& s : site) s = static_cast<int>(rng.NextBounded(sites));
    Partitioning p(num_t, num_a, sites);
    for (int t = 0; t < num_t; ++t) {
      p.AssignTransaction(t, replication ? site[t] : site[group[t]]);
    }
    ASSERT_TRUE(ComputeOptimalY(model, p, replication));
    if (replication) {
      for (int a = 0; a < num_a; ++a) {
        if (rng.NextBool(0.2)) {
          p.PlaceAttribute(a, static_cast<int>(rng.NextBounded(sites)));
        }
      }
    }
    ASSERT_TRUE(ValidatePartitioning(instance, p, !replication).ok());
    encodings.push_back(std::move(p));
  }

  for (const bool symmetry : {false, true}) {
    SCOPED_TRACE(symmetry ? "first-use rows" : "no symmetry rows");
    FormulationOptions options;
    options.num_sites = sites;
    options.allow_replication = replication;
    options.load_balancing = load_balancing;
    options.direction_aware_links = directional;
    options.break_symmetry = symmetry;
    IlpFormulation f = BuildIlpFormulation(model, options);
    // The LP relaxation is a valid lower bound for every encoded solution.
    LpResult relaxation = SolveLp(f.model);
    ASSERT_EQ(relaxation.status, LpStatus::kOptimal);

    for (const Partitioning& p : encodings) {
      std::vector<double> encoded = f.EncodePartitioning(model, p);
      ASSERT_TRUE(f.model.CheckFeasible(encoded, 1e-6).ok());
      // Without the rows the encoding keeps p's labels; with them it is
      // p relabelled in order of first use.
      const Partitioning back = f.ExtractPartitioning(encoded);
      if (symmetry) {
        EXPECT_TRUE(InFirstUseOrder(back));
        for (int t = 0; t < num_t; ++t) {
          for (int u = 0; u < t; ++u) {
            EXPECT_EQ(back.SiteOfTransaction(t) == back.SiteOfTransaction(u),
                      p.SiteOfTransaction(t) == p.SiteOfTransaction(u));
          }
        }
      } else {
        EXPECT_TRUE(back == p);
      }

      // Its model objective matches the cost model's scalarization.
      const double expected = load_balancing ? model.ScalarizedObjective(p)
                                             : model.Objective(p);
      EXPECT_NEAR(f.model.EvaluateObjective(encoded), expected,
                  1e-9 * (1 + std::abs(expected)));
      EXPECT_LE(relaxation.objective,
                expected + 1e-6 * (1 + std::abs(expected)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FormulationPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),  // sites
                       ::testing::Bool(),               // replication
                       ::testing::Bool(),               // load balancing
                       ::testing::Bool()));             // directional links

// --- latency invariants ----------------------------------------------------

class LatencyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LatencyPropertyTest, SingleSiteNeverPaysLatency) {
  Instance instance = SmallInstance(4000 + GetParam(), 50);
  Partitioning baseline = SingleSiteBaseline(instance, 1);
  EXPECT_DOUBLE_EQ(LatencyCost(instance, baseline, 7.0), 0.0);
  // ψ is monotone in replication: adding replicas can only raise it.
  CostModel model(&instance, {.p = 8, .lambda = 0.0});
  Partitioning two(instance.num_transactions(), instance.num_attributes(),
                   2);
  for (int t = 0; t < instance.num_transactions(); ++t) {
    two.AssignTransaction(t, t % 2);
  }
  ASSERT_TRUE(ComputeOptimalY(model, two));
  const double before = LatencyCost(instance, two, 7.0);
  for (int a = 0; a < instance.num_attributes(); ++a) {
    two.PlaceAttribute(a, 0);
    two.PlaceAttribute(a, 1);
  }
  EXPECT_GE(LatencyCost(instance, two, 7.0), before - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatencyPropertyTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace vpart

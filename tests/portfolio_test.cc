#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/advise.h"
#include "api/solver_registry.h"
#include "cost/cost_model.h"
#include "engine/portfolio.h"
#include "instances/random_instance.h"
#include "mip/branch_and_bound.h"
#include "solver/exhaustive_solver.h"
#include "solver/ilp_solver.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace vpart {
namespace {

RandomInstanceParams SmallParams(uint64_t seed) {
  RandomInstanceParams params;
  params.num_transactions = 4;
  params.num_tables = 3;
  params.max_attributes_per_table = 4;
  params.update_percent = 25;
  params.seed = seed;
  return params;
}

// The portfolio's winner can never be worse than any lane that finished:
// every lane publishes into the shared incumbent the winner is read from.
TEST(PortfolioTest, WinnerIsNoWorseThanAnyLane) {
  Instance instance = MakeRandomInstance(SmallParams(11));
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  PortfolioOptions options;
  options.num_sites = 2;
  options.time_limit_seconds = 3.0;
  options.num_threads = 3;
  StatusOr<PortfolioResult> result = SolvePortfolio(model, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->lanes.empty());
  for (const PortfolioLane& lane : result->lanes) {
    if (!lane.has_solution) continue;
    EXPECT_LE(result->scalarized, lane.scalarized + 1e-9)
        << "lane " << lane.name;
  }
  EXPECT_FALSE(result->winner.empty());
}

// With gap 0 and enough time the race must prove the exhaustive optimum
// (λ = 0 makes the exhaustive result a true optimum of the objective).
TEST(PortfolioTest, ProvesExhaustiveOptimumOnSmallInstances) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Instance instance = MakeRandomInstance(SmallParams(seed));
    CostModel model(&instance, {.p = 8, .lambda = 0.0});

    ExhaustiveOptions ex;
    ex.num_sites = 2;
    ExhaustiveResult truth = SolveExhaustively(model, ex);
    ASSERT_TRUE(truth.exact) << "seed " << seed;

    PortfolioOptions options;
    options.num_sites = 2;
    options.time_limit_seconds = 30.0;
    options.relative_gap = 0.0;
    options.num_threads = 2;
    options.seed = seed;
    StatusOr<PortfolioResult> result = SolvePortfolio(model, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->proven_optimal) << "seed " << seed;
    EXPECT_NEAR(result->cost, truth.cost, 1e-6 * (1 + truth.cost))
        << "seed " << seed;
  }
}

// One thread starts none: the lanes run on the caller in the order ilp,
// incremental, sa, and every incumbent is announced there.
TEST(PortfolioTest, OneThreadRunsTheLanesInOrderOnTheCaller) {
  Instance instance = MakeRandomInstance(SmallParams(11));
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  const std::thread::id caller = std::this_thread::get_id();
  for (int run = 0; run < 5; ++run) {
    long incumbents = 0;
    bool off_thread = false;
    PortfolioOptions options;
    options.num_sites = 2;
    options.time_limit_seconds = 30.0;
    options.num_threads = 1;
    options.on_incumbent = [&](const Partitioning&, double, double,
                               const std::string&, double) {
      ++incumbents;
      off_thread = off_thread || std::this_thread::get_id() != caller;
    };
    StatusOr<PortfolioResult> result = SolvePortfolio(model, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> order;
    for (const PortfolioLane& lane : result->lanes) order.push_back(lane.name);
    EXPECT_EQ(order, (std::vector<std::string>{"ilp", "incremental", "sa"}))
        << "run " << run;
    EXPECT_GT(incumbents, 0) << "run " << run;
    EXPECT_FALSE(off_thread) << "run " << run;
  }
}

// One thread serializes the lanes, so the ILP runs first on what the two
// heuristic quarter-budgets leave. rndAt8x15@3 takes far longer than 1 s
// to prove, yet a 1 s race still reaches the SA lane and ends near its
// budget.
TEST(PortfolioTest, OneThreadLeavesTheHeuristicLanesTheirBudget) {
  StatusOr<Instance> instance = MakeNamedRandomInstance("rndAt8x15");
  ASSERT_TRUE(instance.ok());
  CostModel model(&*instance, {.p = 8, .lambda = 0.1});
  PortfolioOptions options;
  options.num_sites = 3;
  options.time_limit_seconds = 1.0;
  options.num_threads = 1;
  Stopwatch watch;
  StatusOr<PortfolioResult> result = SolvePortfolio(model, options);
  const double seconds = watch.ElapsedSeconds();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->proven_optimal);
  bool sa_has_solution = false;
  for (const PortfolioLane& lane : result->lanes) {
    if (lane.name == "sa") sa_has_solution = lane.has_solution;
  }
  EXPECT_TRUE(sa_has_solution);
  // Generous slack for sanitizer builds on a loaded machine.
  EXPECT_LT(seconds, 3.0);
}

TEST(PortfolioTest, AdvisorRoutesThroughThePortfolio) {
  Instance instance = MakeRandomInstance(SmallParams(21));
  AdviseRequest request;
  request.num_sites = 2;
  request.solver = kSolverPortfolio;
  request.num_threads = 2;
  request.time_limit_seconds = 5.0;
  StatusOr<AdviseResponse> response = Advise(instance, request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->result.algorithm_used.find("portfolio"),
            std::string::npos);
  EXPECT_LE(response->result.cost,
            response->result.single_site_cost + 1e-9);
}

TEST(PortfolioTest, AutoSelectsPortfolioWhenThreadsGranted) {
  Instance instance = MakeRandomInstance(SmallParams(22));
  AdviseRequest request;
  request.num_sites = 2;
  request.num_threads = 2;
  request.time_limit_seconds = 3.0;
  StatusOr<AdviseResponse> response = Advise(instance, request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->result.algorithm_used.find("portfolio"),
            std::string::npos);
}

// --- Parallel branch & bound -------------------------------------------

MipOptions ExactMip(int threads) {
  MipOptions options;
  options.relative_gap = 0.0;
  options.time_limit_seconds = 60;
  options.num_threads = threads;
  return options;
}

// The determinism contract: for a proving run, the objective value does
// not depend on the thread count.
TEST(ParallelMipTest, MatchesSerialObjectiveOnRandomBinaryPrograms) {
  Rng rng(4242);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 6 + static_cast<int>(rng.NextBounded(6));  // 6..11 vars
    LpModel model;
    for (int j = 0; j < n; ++j) {
      model.AddBinaryVariable(std::round((rng.NextDouble() * 20 - 10) * 4) /
                              4);
    }
    const int m = 2 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < m; ++i) {
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < n; ++j) {
        terms.emplace_back(j, std::round(rng.NextDouble() * 5 * 2) / 2);
      }
      model.AddConstraint(ConstraintSense::kLessEqual,
                          std::round(rng.NextDouble() * n * 2.0 * 2) / 2,
                          std::move(terms));
    }
    MipResult serial = SolveMip(model, ExactMip(1));
    MipResult parallel = SolveMip(model, ExactMip(4));
    ASSERT_EQ(serial.status, parallel.status) << "trial " << trial;
    if (serial.has_incumbent()) {
      EXPECT_NEAR(serial.objective, parallel.objective, 1e-6)
          << "trial " << trial;
    }
    EXPECT_TRUE(parallel.proof.search_exhausted) << "trial " << trial;
  }
}

// End to end through the ILP formulation on seeded instances.
TEST(ParallelMipTest, IlpParallelMatchesSerialOnSeededInstances) {
  for (uint64_t seed = 31; seed <= 33; ++seed) {
    Instance instance = MakeRandomInstance(SmallParams(seed));
    CostModel model(&instance, {.p = 8, .lambda = 0.1});
    IlpSolverOptions options;
    options.formulation.num_sites = 2;
    options.mip.relative_gap = 0;
    options.mip.time_limit_seconds = 60;

    options.mip.num_threads = 1;
    IlpSolveResult serial = SolveWithIlp(model, options);
    options.mip.num_threads = 4;
    IlpSolveResult parallel = SolveWithIlp(model, options);

    ASSERT_EQ(serial.status, MipStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(parallel.status, MipStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(parallel.scalarized, serial.scalarized,
                1e-6 * (1 + std::abs(serial.scalarized)))
        << "seed " << seed;
  }
}

TEST(ParallelMipTest, ExternalBoundBelowOptimumProvesNothingBetter) {
  // Knapsack optimum is -23; an external bound of -25 dominates every
  // node, so the search proves "nothing beats the external incumbent"
  // and reports it via pruned_by_external_bound instead of kInfeasible
  // meaning literal infeasibility.
  LpModel model;
  int x0 = model.AddBinaryVariable(-10);
  int x1 = model.AddBinaryVariable(-13);
  int x2 = model.AddBinaryVariable(-7);
  int x3 = model.AddBinaryVariable(-8);
  model.AddConstraint(ConstraintSense::kLessEqual, 7,
                      {{x0, 3}, {x1, 4}, {x2, 2}, {x3, 3}});
  std::atomic<double> external(-25.0);
  for (int threads : {1, 4}) {
    MipOptions options = ExactMip(threads);
    options.enable_dive = false;
    options.external_upper_bound = &external;
    MipResult result = SolveMip(model, options);
    EXPECT_FALSE(result.has_incumbent()) << threads << " threads";
    EXPECT_TRUE(result.proof.pruned_by_external_bound) << threads << " threads";
    EXPECT_TRUE(result.proof.search_exhausted) << threads << " threads";
  }
}

TEST(ParallelMipTest, LooseExternalBoundDoesNotChangeTheOptimum) {
  LpModel model;
  int x0 = model.AddBinaryVariable(-10);
  int x1 = model.AddBinaryVariable(-13);
  model.AddConstraint(ConstraintSense::kLessEqual, 4, {{x0, 3}, {x1, 4}});
  std::atomic<double> external(100.0);
  for (int threads : {1, 4}) {
    MipOptions options = ExactMip(threads);
    options.external_upper_bound = &external;
    MipResult result = SolveMip(model, options);
    ASSERT_EQ(result.status, MipStatus::kOptimal) << threads << " threads";
    EXPECT_NEAR(result.objective, -13, 1e-6) << threads << " threads";
    EXPECT_FALSE(result.proof.pruned_by_external_bound) << threads << " threads";
  }
}

// A worker whose progress callback throws stops every worker, and the
// exception reaches the caller once they joined. The tick at the root
// throws while its node is in flight, so siblings waiting for that node
// to branch must be released too.
TEST(ParallelMipTest, CallbackExceptionReachesTheCaller) {
  LpModel model;
  int x0 = model.AddBinaryVariable(-10);
  int x1 = model.AddBinaryVariable(-13);
  model.AddConstraint(ConstraintSense::kLessEqual, 4, {{x0, 3}, {x1, 4}});
  for (int threads : {1, 4}) {
    MipOptions options = ExactMip(threads);
    options.progress_node_interval = 1;
    options.progress = [](const MipProgress&) {
      throw std::runtime_error("progress sink failed");
    };
    EXPECT_THROW(SolveMip(model, options), std::runtime_error)
        << threads << " threads";
  }
}

TEST(ParallelMipTest, CancelFlagStopsTheSearch) {
  LpModel model;
  for (int j = 0; j < 12; ++j) model.AddBinaryVariable(-1 - 0.1 * j);
  std::vector<std::pair<int, double>> terms;
  for (int j = 0; j < 12; ++j) terms.emplace_back(j, 1.0 + 0.01 * j);
  model.AddConstraint(ConstraintSense::kLessEqual, 6.05, std::move(terms));
  std::atomic<bool> cancel(true);  // cancelled before the search starts
  for (int threads : {1, 4}) {
    MipOptions options = ExactMip(threads);
    options.enable_dive = false;
    options.cancel_flag = &cancel;
    MipResult result = SolveMip(model, options);
    EXPECT_EQ(result.status, MipStatus::kNoSolution)
        << threads << " threads";
    EXPECT_FALSE(result.proof.search_exhausted) << threads << " threads";
  }
}

}  // namespace
}  // namespace vpart

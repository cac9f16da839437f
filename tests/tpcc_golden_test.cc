// Golden regression values for the TPC-C reproduction. These pin the exact
// optimal objective values of our TPC-C model so that any change to the
// schema widths, query modeling, cost model, or solvers that shifts the
// headline numbers is caught immediately. If a change here is *intended*
// (e.g. adopting different width assumptions), update the constants and
// EXPERIMENTS.md together.

#include <gtest/gtest.h>

#include <string>

#include "api/advise.h"
#include "cost/cost_model.h"
#include "instances/random_instance.h"
#include "instances/tpcc.h"
#include "mip/branch_and_bound.h"
#include "obs/trace.h"
#include "solver/attribute_groups.h"
#include "solver/exhaustive_solver.h"
#include "solver/formulation.h"
#include "solver/ilp_solver.h"

namespace vpart {
namespace {

// Proven-optimal objective (4) values, p = 8 (exhaustive over the grouped
// instance; cross-checked by the ILP at gap 0 in other tests).
constexpr double kSingleSiteCost = 50163.0;
constexpr double kTwoSiteCost = 36653.0;
constexpr double kThreeSiteCost = 36572.0;
constexpr double kFourSiteCost = 36572.0;  // no gain beyond three sites
constexpr double kDisjointTwoSiteCost = 50019.0;
constexpr double kLocalThreeSiteCost = 33332.0;  // p = 0
constexpr int kAttributeGroups = 37;

/// Count of the `name` row in a response's telemetry.trace_summary, or -1
/// when the summary has no such row.
long SpanCount(const JsonValue& trace_summary, const std::string& name) {
  const JsonValue* spans = trace_summary.Find("spans");
  if (spans == nullptr) return -1;
  for (const JsonValue& span : spans->as_array()) {
    if (span.Find("name")->as_string() == name) {
      return static_cast<long>(span.Find("count")->as_number());
    }
  }
  return -1;
}

class TpccGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_ = MakeTpccInstance();
    auto grouping = BuildAttributeGrouping(instance_);
    ASSERT_TRUE(grouping.ok());
    grouping_ = std::move(grouping.value());
  }

  double Optimum(int sites, double p, bool replication) {
    CostModel model(&grouping_.reduced, {.p = p, .lambda = 0.0});
    ExhaustiveOptions options;
    options.num_sites = sites;
    options.allow_replication = replication;
    ExhaustiveResult result = SolveExhaustively(model, options);
    EXPECT_TRUE(result.exact);
    // Evaluate on the original instance (grouping exactness).
    CostModel full(&instance_, {.p = p, .lambda = 0.0});
    return full.Objective(
        grouping_.ExpandPartitioning(*result.partitioning));
  }

  Instance instance_;
  AttributeGrouping grouping_;
};

TEST_F(TpccGoldenTest, GroupCount) {
  EXPECT_EQ(grouping_.num_groups(), kAttributeGroups);
}

TEST_F(TpccGoldenTest, SingleSiteCost) {
  CostModel model(&instance_, {.p = 8, .lambda = 0.0});
  EXPECT_DOUBLE_EQ(model.Objective(SingleSiteBaseline(instance_, 1)),
                   kSingleSiteCost);
}

TEST_F(TpccGoldenTest, ReplicatedOptimaAcrossSites) {
  EXPECT_DOUBLE_EQ(Optimum(2, 8, true), kTwoSiteCost);
  EXPECT_DOUBLE_EQ(Optimum(3, 8, true), kThreeSiteCost);
  EXPECT_DOUBLE_EQ(Optimum(4, 8, true), kFourSiteCost);
}

TEST_F(TpccGoldenTest, HeadlineReductionIsStable) {
  const double reduction = 1.0 - kThreeSiteCost / kSingleSiteCost;
  EXPECT_NEAR(reduction, 0.271, 0.001);  // ours 27.1%; paper 37%
}

TEST_F(TpccGoldenTest, DisjointGainsAlmostNothing) {
  EXPECT_DOUBLE_EQ(Optimum(2, 8, false), kDisjointTwoSiteCost);
  // The paper's core Table-5 observation: disjoint ~ single-site.
  EXPECT_GT(kDisjointTwoSiteCost / kSingleSiteCost, 0.99);
}

TEST_F(TpccGoldenTest, LocalPlacementBeatsRemote) {
  EXPECT_DOUBLE_EQ(Optimum(3, 0, true), kLocalThreeSiteCost);
  EXPECT_LT(kLocalThreeSiteCost, kThreeSiteCost);
}

TEST_F(TpccGoldenTest, IlpAgreesWithGoldenOptimum) {
  CostModel model(&grouping_.reduced, {.p = 8, .lambda = 0.0});
  IlpSolverOptions options;
  options.formulation.num_sites = 3;
  options.formulation.load_balancing = false;
  options.mip.relative_gap = 0;
  options.mip.time_limit_seconds = 60;
  IlpSolveResult result = SolveWithIlp(model, options);
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  CostModel full(&instance_, {.p = 8, .lambda = 0.0});
  EXPECT_DOUBLE_EQ(
      full.Objective(grouping_.ExpandPartitioning(*result.partitioning)),
      kThreeSiteCost);
}

// Warm starting is what makes the eq.-(7) branch & bound cheap: a child
// node's LP is a dual reoptimization from its parent's basis instead of a
// two-phase primal from a crash basis. Both searches prove the same
// optimum (34,705.4 in 3 nodes); the warm one takes 667 pivots and 8
// factorizations, the cold one 2,695 and 28. The time these counts cost is
// perfbench's `proof` lp.us_per_pivot and lp.busy_s.
TEST_F(TpccGoldenTest, IlpWarmStartProvesTheSameOptimumInHalfThePivots) {
  CostModel model(&instance_, {.p = 8, .lambda = 0.1});
  FormulationOptions formulation_options;
  formulation_options.num_sites = 2;
  const IlpFormulation formulation =
      BuildIlpFormulation(model, formulation_options);
  MipOptions options;
  options.time_limit_seconds = 60;
  const MipResult warm = SolveMip(formulation.model, options);
  options.use_warm_start = false;
  const MipResult cold = SolveMip(formulation.model, options);

  ASSERT_EQ(warm.status, MipStatus::kOptimal);
  ASSERT_EQ(cold.status, MipStatus::kOptimal);
  // The same optimum, up to round-off in the last digits of the LP values.
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * cold.objective);
  const LpSolveStats& warm_lp = warm.proof.lp_stats;
  const LpSolveStats& cold_lp = cold.proof.lp_stats;
  EXPECT_GT(warm_lp.warm_starts, 0);
  EXPECT_EQ(cold_lp.warm_starts, 0);
  EXPECT_LE(warm_lp.total_iterations(), cold_lp.total_iterations() / 2)
      << "warm " << warm_lp.total_iterations() << " vs cold "
      << cold_lp.total_iterations();
  EXPECT_LT(warm_lp.factorizations, cold_lp.factorizations);
}

// The exact pivot path of the request-level ILP proofs. The LP kernels
// must do the same floating-point operations in the same order, so a
// kernel change that reorders any of them (and with it a pivot choice, a
// refactorization trigger or a branching decision) moves these counts even
// when the optimum stays put. They match in Release and in a Debug
// ASan+UBSan build. A change to the eq.-(7) model (solver/formulation.cc)
// moves them too; the costs must not move.
//
// Tracing must never steer the search: every obs level does the same work.
// At `full` the trace records one bnb_node span per node plus the LP
// reoptimize and refactorize spans; `basic` records lifecycle spans only.
// The tracer and its summaries are process-global, so each run starts from
// a cleared recorder. What tracing costs in time is inside every perfbench
// end-to-end metric (requests run at `basic`), plus obs.snapshot_us.
TEST_F(TpccGoldenTest, IlpProofPivotPathIsPinned) {
  struct Expected {
    int sites;
    double cost;
    long nodes;
    long pivots;
    long factorizations;
  };
  for (const ObsLevel obs : {ObsLevel::kOff, ObsLevel::kBasic,
                             ObsLevel::kFull}) {
    for (const Expected& expected :
         {Expected{3, kThreeSiteCost, 3, 482, 7},
          Expected{4, kFourSiteCost, 3, 510, 7}}) {
      SCOPED_TRACE(std::to_string(expected.sites) + " sites, obs " +
                   ObsLevelName(obs));
      Tracer::Global().Clear();
      AdviseRequest request;
      request.solver = "ilp";
      request.num_sites = expected.sites;
      request.certify = true;
      request.obs = obs;
      StatusOr<AdviseResponse> response = Advise(instance_, request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_TRUE(response->result.proven_optimal);
      EXPECT_EQ(response->result.cost, expected.cost);
      EXPECT_EQ(response->bnb_nodes, expected.nodes);
      EXPECT_EQ(response->lp_stats.total_iterations(), expected.pivots);
      EXPECT_EQ(response->lp_stats.factorizations, expected.factorizations);

      const JsonValue& summary = response->trace_summary;
      if (obs == ObsLevel::kOff) {
        EXPECT_TRUE(summary.is_null());
      } else if (obs == ObsLevel::kBasic) {
        EXPECT_GT(SpanCount(summary, "advise"), 0);
        EXPECT_EQ(SpanCount(summary, "bnb_node"), -1);
      } else {
        EXPECT_EQ(SpanCount(summary, "bnb_node"), response->bnb_nodes);
        EXPECT_GT(SpanCount(summary, "lp_reoptimize"), 0);
        EXPECT_GT(SpanCount(summary, "lp_refactorize"), 0);
      }
    }
  }
}

// A deep serial tree beside TPC-C's 3-node ones: every step of the
// depth-first search (prune, dive, branching side, incumbent offer) is on
// the path, so a search change that reorders any of them moves these
// counts. No SA warm start: a time-capped anneal would make the tree
// depend on machine speed.
TEST(IlpProofPinTest, Random8x15TwoSiteTreeIsPinned) {
  StatusOr<Instance> instance = MakeNamedRandomInstance("rndAt8x15");
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  AdviseRequest request;
  request.solver = "ilp";
  request.num_sites = 2;
  request.certify = true;
  request.ilp.warm_start_seconds = 0;
  StatusOr<AdviseResponse> response = Advise(*instance, request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->result.proven_optimal);
  ASSERT_TRUE(response->certified);
  EXPECT_EQ(response->result.cost, 4088.0);
  EXPECT_EQ(response->bnb_nodes, 348);
  EXPECT_EQ(response->lp_stats.total_iterations(), 14728);
  EXPECT_EQ(response->lp_stats.factorizations, 239);
  EXPECT_EQ(response->lp_stats.lp_solves, 355);
}

TEST_F(TpccGoldenTest, PaperStructureOfTheThreeSiteOptimum) {
  CostModel model(&grouping_.reduced, {.p = 8, .lambda = 0.1});
  ExhaustiveOptions options;
  options.num_sites = 3;
  ExhaustiveResult result = SolveExhaustively(model, options);
  ASSERT_TRUE(result.partitioning.has_value());
  const Partitioning& p = *result.partitioning;
  const Workload& workload = grouping_.reduced.workload();
  auto site_of = [&](const char* name) {
    return p.SiteOfTransaction(workload.FindTransaction(name).value());
  };
  // The paper's Table 4 clustering: Payment alone, StockLevel alone,
  // {NewOrder, OrderStatus, Delivery} together.
  EXPECT_EQ(site_of("NewOrder"), site_of("OrderStatus"));
  EXPECT_EQ(site_of("NewOrder"), site_of("Delivery"));
  EXPECT_NE(site_of("Payment"), site_of("NewOrder"));
  EXPECT_NE(site_of("StockLevel"), site_of("NewOrder"));
  EXPECT_NE(site_of("StockLevel"), site_of("Payment"));
}

}  // namespace
}  // namespace vpart

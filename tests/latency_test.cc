#include <gtest/gtest.h>

#include "cost/cost_model.h"
#include "mip/branch_and_bound.h"
#include "solver/latency.h"

namespace vpart {
namespace {

/// One writer transaction, one read-only transaction on another table.
/// Build(true) also lets the writer read the attribute it writes.
class LatencyFixture : public ::testing::Test {
 protected:
  void SetUp() override { Build(/*writer_reads=*/false); }

  void Build(bool writer_reads) {
    InstanceBuilder builder("lat");
    int r = builder.AddTable("R");
    int s = builder.AddTable("S");
    x_ = builder.AddAttribute(r, "x", 8);
    y_ = builder.AddAttribute(s, "y", 8);
    t0_ = builder.AddTransaction("Writer");
    t1_ = builder.AddTransaction("Reader");
    wq_ = builder.AddQuery(t0_, "w", QueryKind::kWrite, 3.0, {x_},
                           {{r, 1.0}});
    rq_ = builder.AddQuery(t1_, "r", QueryKind::kRead, 1.0, {y_},
                           {{s, 1.0}});
    if (writer_reads) {
      builder.AddQuery(t0_, "wr", QueryKind::kRead, 2.0, {x_}, {{r, 1.0}});
    }
    auto instance = builder.Build();
    ASSERT_TRUE(instance.ok());
    instance_ = std::move(instance.value());
  }

  Instance instance_;
  int x_, y_, t0_, t1_, wq_, rq_;
};

TEST_F(LatencyFixture, PsiZeroWhenAllReplicasLocal) {
  Partitioning p(2, 2, 2);
  p.AssignTransaction(t0_, 0);
  p.AssignTransaction(t1_, 1);
  p.PlaceAttribute(x_, 0);
  p.PlaceAttribute(y_, 1);
  auto psi = ComputePsi(instance_, p);
  EXPECT_EQ(psi[wq_], 0);
  EXPECT_EQ(psi[rq_], 0);
  EXPECT_DOUBLE_EQ(LatencyCost(instance_, p, 5.0), 0.0);
}

TEST_F(LatencyFixture, PsiOneWithRemoteReplica) {
  Partitioning p(2, 2, 2);
  p.AssignTransaction(t0_, 0);
  p.AssignTransaction(t1_, 1);
  p.PlaceAttribute(x_, 0);
  p.PlaceAttribute(x_, 1);  // remote replica of the written attribute
  p.PlaceAttribute(y_, 1);
  auto psi = ComputePsi(instance_, p);
  EXPECT_EQ(psi[wq_], 1);
  EXPECT_EQ(psi[rq_], 0);  // reads never pay latency
  // p_l * f_q = 5 * 3.
  EXPECT_DOUBLE_EQ(LatencyCost(instance_, p, 5.0), 15.0);
}

TEST_F(LatencyFixture, PsiOneWhenWriterIsRemoteFromOnlyReplica) {
  Partitioning p(2, 2, 2);
  p.AssignTransaction(t0_, 1);  // writer away from x
  p.AssignTransaction(t1_, 1);
  p.PlaceAttribute(x_, 0);
  p.PlaceAttribute(y_, 1);
  auto psi = ComputePsi(instance_, p);
  EXPECT_EQ(psi[wq_], 1);
}

TEST_F(LatencyFixture, FormulationPsiMatchesEvaluation) {
  CostModel model(&instance_, {.p = 8, .lambda = 0.0});
  FormulationOptions options;
  options.num_sites = 2;
  options.load_balancing = false;
  options.break_symmetry = false;
  IlpFormulation f = BuildIlpFormulation(model, options);
  std::vector<int> psi_var = AddLatencyToFormulation(model, 5.0, f);
  ASSERT_GE(psi_var[wq_], 0);
  EXPECT_EQ(psi_var[rq_], -1);  // reads have no ψ

  // Solve; with latency penalty the solver should avoid remote replicas of
  // x entirely and the ψ of the write query must be 0.
  MipOptions mip;
  mip.relative_gap = 0;
  MipResult result = SolveMip(f.model, mip);
  ASSERT_TRUE(result.has_incumbent());
  Partitioning p = f.ExtractPartitioning(result.values);
  auto psi = ComputePsi(instance_, p);
  EXPECT_NEAR(result.values[psi_var[wq_]], psi[wq_], 1e-6);
  EXPECT_EQ(psi[wq_], 0);
}

TEST_F(LatencyFixture, FormulationPsiForcedByRemoteReplica) {
  // Forcing x onto both sites makes ψ = 1 regardless of the assignment.
  CostModel model(&instance_, {.p = 8, .lambda = 0.0});
  FormulationOptions options;
  options.num_sites = 2;
  options.load_balancing = false;
  options.break_symmetry = false;
  IlpFormulation f = BuildIlpFormulation(model, options);
  std::vector<int> psi_var = AddLatencyToFormulation(model, 5.0, f);
  for (int s = 0; s < 2; ++s) {
    f.model.AddConstraint(ConstraintSense::kEqual, 1.0,
                          {{f.y_var[x_][s], 1.0}});
  }
  MipOptions mip;
  mip.relative_gap = 0;
  MipResult result = SolveMip(f.model, mip);
  ASSERT_TRUE(result.has_incumbent());
  EXPECT_NEAR(result.values[psi_var[wq_]], 1.0, 1e-6);
}

TEST_F(LatencyFixture, ReadPairOfTheWriterUsesXInsteadOfAColumn) {
  // The writer reads x too, so (Writer, x) is a read pair: its u is x
  // itself (the coloc row makes x·y = x) and no ul_ column is built.
  Build(/*writer_reads=*/true);
  CostModel model(&instance_, {.p = 8, .lambda = 0.0});
  FormulationOptions options;
  options.num_sites = 2;
  options.load_balancing = false;
  options.break_symmetry = false;
  for (const bool remote_replica : {false, true}) {
    SCOPED_TRACE(remote_replica ? "x on both sites" : "free placement");
    IlpFormulation f = BuildIlpFormulation(model, options);
    const int columns = f.model.num_variables();
    std::vector<int> psi_var = AddLatencyToFormulation(model, 5.0, f);
    ASSERT_GE(psi_var[wq_], 0);
    EXPECT_EQ(f.model.num_variables(), columns + 1);  // ψ only
    for (const LpModel::Variable& v : f.model.variables()) {
      EXPECT_NE(v.name.rfind("ul_", 0), 0u) << v.name;
    }
    if (remote_replica) {
      for (int s = 0; s < 2; ++s) {
        f.model.AddConstraint(ConstraintSense::kEqual, 1.0,
                              {{f.y_var[x_][s], 1.0}});
      }
    }
    MipOptions mip;
    mip.relative_gap = 0;
    MipResult result = SolveMip(f.model, mip);
    ASSERT_TRUE(result.has_incumbent());
    auto psi = ComputePsi(instance_, f.ExtractPartitioning(result.values));
    EXPECT_EQ(psi[wq_], remote_replica ? 1 : 0);
    EXPECT_NEAR(result.values[psi_var[wq_]], psi[wq_], 1e-6);
  }
}

}  // namespace
}  // namespace vpart

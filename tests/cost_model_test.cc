#include <gtest/gtest.h>

#include "cost/cost_model.h"
#include "cost/partitioning.h"
#include "instances/random_instance.h"
#include "util/rng.h"
#include "workload/instance.h"

namespace vpart {
namespace {

/// The worked micro-instance (all numbers derived by hand in comments):
///   Table R: x (w=4), y (w=8).   Table S: z (w=2).
///   T0: q0 = read,  f=2, rows(R)=3, refs {x}.
///   T1: q1 = write, f=1, rows(S)=5, refs {z};
///       q2 = read,  f=1, rows(R)=1, rows(S)=2, refs {y, z}.
/// Weights: W(x,q0)=24, W(y,q0)=48; W(z,q1)=10; W(x,q2)=4, W(y,q2)=8,
/// W(z,q2)=4. With p = 10:
///   c1(x,T0)=24   c1(y,T0)=48   c1(z,T0)=0
///   c1(x,T1)=4    c1(y,T1)=8    c1(z,T1)=4-10*10=-96
///   c2(x)=0       c2(y)=0       c2(z)=10*(1+10)=110
///   c3 = c1 without the transfer term; c4(z)=10, else 0.
class CostModelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    InstanceBuilder builder("micro");
    int r = builder.AddTable("R");
    int s = builder.AddTable("S");
    x_ = builder.AddAttribute(r, "x", 4);
    y_ = builder.AddAttribute(r, "y", 8);
    z_ = builder.AddAttribute(s, "z", 2);
    t0_ = builder.AddTransaction("T0");
    t1_ = builder.AddTransaction("T1");
    builder.AddQuery(t0_, "q0", QueryKind::kRead, 2.0, {x_}, {{r, 3.0}});
    builder.AddQuery(t1_, "q1", QueryKind::kWrite, 1.0, {z_}, {{s, 5.0}});
    builder.AddQuery(t1_, "q2", QueryKind::kRead, 1.0, {y_, z_},
                     {{r, 1.0}, {s, 2.0}});
    auto instance = builder.Build();
    ASSERT_TRUE(instance.ok());
    instance_ = std::move(instance.value());
  }

  Instance instance_;
  int x_, y_, z_, t0_, t1_;
};

TEST_F(CostModelFixture, CoefficientsMatchHandComputation) {
  CostModel model(&instance_, {.p = 10.0, .lambda = 0.5});
  EXPECT_DOUBLE_EQ(model.c1(x_, t0_), 24);
  EXPECT_DOUBLE_EQ(model.c1(y_, t0_), 48);
  EXPECT_DOUBLE_EQ(model.c1(z_, t0_), 0);
  EXPECT_DOUBLE_EQ(model.c1(x_, t1_), 4);
  EXPECT_DOUBLE_EQ(model.c1(y_, t1_), 8);
  EXPECT_DOUBLE_EQ(model.c1(z_, t1_), -96);

  EXPECT_DOUBLE_EQ(model.c2(x_), 0);
  EXPECT_DOUBLE_EQ(model.c2(y_), 0);
  EXPECT_DOUBLE_EQ(model.c2(z_), 110);

  EXPECT_DOUBLE_EQ(model.c3(x_, t0_), 24);
  EXPECT_DOUBLE_EQ(model.c3(y_, t0_), 48);
  EXPECT_DOUBLE_EQ(model.c3(x_, t1_), 4);
  EXPECT_DOUBLE_EQ(model.c3(y_, t1_), 8);
  EXPECT_DOUBLE_EQ(model.c3(z_, t1_), 4);

  EXPECT_DOUBLE_EQ(model.c4(x_), 0);
  EXPECT_DOUBLE_EQ(model.c4(y_), 0);
  EXPECT_DOUBLE_EQ(model.c4(z_), 10);
}

TEST_F(CostModelFixture, ObjectiveOnTwoSitePartitioning) {
  CostModel model(&instance_, {.p = 10.0, .lambda = 0.5});
  // x(T0)=0, x(T1)=1; y: x->{0}, y->{0,1}, z->{1}.
  Partitioning p(2, 3, 2);
  p.AssignTransaction(t0_, 0);
  p.AssignTransaction(t1_, 1);
  p.PlaceAttribute(x_, 0);
  p.PlaceAttribute(y_, 0);
  p.PlaceAttribute(y_, 1);
  p.PlaceAttribute(z_, 1);
  ASSERT_TRUE(ValidatePartitioning(instance_, p).ok());

  // obj4 = (24+48) + (8 - 96) + c2(z)*1 = 72 - 88 + 110 = 94.
  EXPECT_DOUBLE_EQ(model.Objective(p), 94);

  const CostBreakdown breakdown = model.Breakdown(p);
  EXPECT_DOUBLE_EQ(breakdown.read_access, 84);   // 72 + (8+4)
  EXPECT_DOUBLE_EQ(breakdown.write_access, 10);  // c4(z) * 1 replica
  EXPECT_DOUBLE_EQ(breakdown.transfer, 0);       // z local to T1
  EXPECT_DOUBLE_EQ(breakdown.total, 94);

  EXPECT_DOUBLE_EQ(model.SiteLoad(p, 0), 72);
  EXPECT_DOUBLE_EQ(model.SiteLoad(p, 1), 22);  // 8 + 4 + c4(z)=10
  EXPECT_DOUBLE_EQ(model.MaxLoad(p), 72);
  EXPECT_DOUBLE_EQ(model.ScalarizedObjective(p), 0.5 * 94 + 0.5 * 72);
}

TEST_F(CostModelFixture, SingleSiteBaselineObjective) {
  CostModel model(&instance_, {.p = 10.0, .lambda = 0.5});
  Partitioning p = SingleSiteBaseline(instance_, 1);
  // obj4 = 24+48 + 4+8-96 + 110 = 98.
  EXPECT_DOUBLE_EQ(model.Objective(p), 98);
  const CostBreakdown breakdown = model.Breakdown(p);
  EXPECT_DOUBLE_EQ(breakdown.read_access, 88);  // 72 + 16
  EXPECT_DOUBLE_EQ(breakdown.write_access, 10);
  EXPECT_DOUBLE_EQ(breakdown.transfer, 0);
  EXPECT_DOUBLE_EQ(breakdown.total, 98);
}

TEST_F(CostModelFixture, RemoteReplicaPaysTransfer) {
  CostModel model(&instance_, {.p = 10.0, .lambda = 0.0});
  // Replicate z on both sites; T1 on site 1 writes z -> 1 remote replica.
  Partitioning p(2, 3, 2);
  p.AssignTransaction(t0_, 0);
  p.AssignTransaction(t1_, 1);
  p.PlaceAttribute(x_, 0);
  p.PlaceAttribute(y_, 0);
  p.PlaceAttribute(y_, 1);
  p.PlaceAttribute(z_, 0);
  p.PlaceAttribute(z_, 1);
  const CostBreakdown breakdown = model.Breakdown(p);
  EXPECT_DOUBLE_EQ(breakdown.transfer, 10);       // W(z,q1) to one remote
  EXPECT_DOUBLE_EQ(breakdown.write_access, 20);   // c4(z) * 2 replicas
  // Objective consistency: c1/c2 route equals first-principles route.
  EXPECT_DOUBLE_EQ(model.Objective(p), breakdown.total);
}

TEST_F(CostModelFixture, TransactionAndAttributeMarginals) {
  CostModel model(&instance_, {.p = 10.0, .lambda = 0.5});
  Partitioning p(2, 3, 2);
  p.AssignTransaction(t0_, 0);
  p.AssignTransaction(t1_, 1);
  p.PlaceAttribute(x_, 0);
  p.PlaceAttribute(y_, 0);
  p.PlaceAttribute(y_, 1);
  p.PlaceAttribute(z_, 1);
  // T1 on site 0 would see x, y, (no z): 4 + 8 = 12.
  EXPECT_DOUBLE_EQ(model.TransactionOnSiteCost(p, t1_, 0), 12);
  // T1 on site 1 sees y and z: 8 - 96 = -88.
  EXPECT_DOUBLE_EQ(model.TransactionOnSiteCost(p, t1_, 1), -88);
}

// Property: Objective() (c1/c2 form) and Breakdown().total (A_R+A_W+pB form)
// are algebraically equal; check on random instances and partitionings.
TEST(CostModelPropertyTest, ObjectiveEqualsBreakdownEverywhere) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    RandomInstanceParams params;
    params.num_transactions = 6;
    params.num_tables = 4;
    params.update_percent = 30;
    params.seed = 1000 + trial;
    Instance instance = MakeRandomInstance(params);
    CostModel model(&instance, {.p = 8.0, .lambda = 0.1});
    const int sites = 1 + trial % 3;
    Partitioning p(instance.num_transactions(), instance.num_attributes(),
                   sites);
    for (int t = 0; t < instance.num_transactions(); ++t) {
      p.AssignTransaction(t, static_cast<int>(rng.NextBounded(sites)));
    }
    for (int a = 0; a < instance.num_attributes(); ++a) {
      p.PlaceAttribute(a, static_cast<int>(rng.NextBounded(sites)));
      if (rng.NextBool(0.3)) {
        p.PlaceAttribute(a, static_cast<int>(rng.NextBounded(sites)));
      }
    }
    EXPECT_NEAR(model.Objective(p), model.Breakdown(p).total,
                1e-9 * (1 + std::abs(model.Objective(p))))
        << "trial " << trial;
    // MaxLoad is the max of per-site loads.
    double max_load = 0;
    for (int s = 0; s < sites; ++s) {
      max_load = std::max(max_load, model.SiteLoad(p, s));
    }
    EXPECT_DOUBLE_EQ(model.MaxLoad(p), max_load);
  }
}

// p = 0 makes transfer free: the objective must not depend on replica
// remoteness, only on counts.
TEST(CostModelPropertyTest, ZeroPenaltyIgnoresTransfer) {
  RandomInstanceParams params;
  params.num_transactions = 5;
  params.num_tables = 3;
  params.update_percent = 50;
  params.seed = 77;
  Instance instance = MakeRandomInstance(params);
  CostModel model(&instance, {.p = 0.0, .lambda = 0.0});
  Partitioning p(instance.num_transactions(), instance.num_attributes(), 2);
  for (int t = 0; t < instance.num_transactions(); ++t) {
    p.AssignTransaction(t, t % 2);
  }
  for (int a = 0; a < instance.num_attributes(); ++a) {
    p.PlaceAttribute(a, 0);
    p.PlaceAttribute(a, 1);
  }
  const CostBreakdown breakdown = model.Breakdown(p);
  EXPECT_GE(breakdown.transfer, 0);
  EXPECT_DOUBLE_EQ(breakdown.total,
                   breakdown.read_access + breakdown.write_access);
}

}  // namespace
}  // namespace vpart

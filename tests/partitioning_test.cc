#include <gtest/gtest.h>

#include "cost/partitioning.h"
#include "workload/instance.h"

namespace vpart {
namespace {

Instance TinyInstance() {
  InstanceBuilder builder("tiny");
  int r = builder.AddTable("R");
  int x = builder.AddAttribute(r, "x", 4);
  int y = builder.AddAttribute(r, "y", 8);
  (void)y;
  int t = builder.AddTransaction("T");
  builder.AddQuery(t, "q", QueryKind::kRead, 1.0, {x}, {{r, 1.0}});
  auto instance = builder.Build();
  EXPECT_TRUE(instance.ok());
  return std::move(instance.value());
}

TEST(PartitioningTest, BasicAccessors) {
  Partitioning p(2, 3, 2);
  EXPECT_EQ(p.num_transactions(), 2);
  EXPECT_EQ(p.num_attributes(), 3);
  EXPECT_EQ(p.num_sites(), 2);
  EXPECT_EQ(p.SiteOfTransaction(0), -1);

  p.AssignTransaction(0, 1);
  EXPECT_EQ(p.SiteOfTransaction(0), 1);

  p.PlaceAttribute(2, 0);
  p.PlaceAttribute(2, 1);
  EXPECT_TRUE(p.HasAttribute(2, 0));
  EXPECT_EQ(p.ReplicaCount(2), 2);
  EXPECT_EQ(p.SitesOfAttribute(2), (std::vector<int>{0, 1}));
  p.RemoveAttribute(2, 0);
  EXPECT_EQ(p.ReplicaCount(2), 1);
  p.ClearAttribute(2);
  EXPECT_EQ(p.ReplicaCount(2), 0);
}

TEST(PartitioningTest, SiteInventories) {
  Partitioning p(3, 2, 2);
  p.AssignTransaction(0, 0);
  p.AssignTransaction(1, 1);
  p.AssignTransaction(2, 0);
  p.PlaceAttribute(0, 0);
  p.PlaceAttribute(1, 1);
  EXPECT_EQ(p.TransactionsOnSite(0), (std::vector<int>{0, 2}));
  EXPECT_EQ(p.TransactionsOnSite(1), (std::vector<int>{1}));
  EXPECT_EQ(p.AttributesOnSite(0), (std::vector<int>{0}));
  EXPECT_EQ(p.AttributesOnSite(1), (std::vector<int>{1}));
}

// The packed halves round-trip across word boundaries: 70 transactions at
// 5 sites take 3 bits each, 21 to a word, and 30 attributes at 5 sites
// take 150 bits.
TEST(PartitioningTest, PackedHalvesRoundTrip) {
  const int num_t = 70, num_a = 30, num_s = 5, site_bits = 3;
  Partitioning p(num_t, num_a, num_s);
  for (int t = 0; t < num_t; ++t) p.AssignTransaction(t, (t * 7 + 3) % num_s);
  for (int a = 0; a < num_a; ++a) {
    for (int s = 0; s < num_s; ++s) {
      if ((a * 3 + s * 5) % 4 == 0) p.PlaceAttribute(a, s);
    }
  }
  ASSERT_EQ(Partitioning::AssignmentWords(num_t, site_bits), 4);
  ASSERT_EQ(Partitioning::PlacementWords(num_a, num_s), 3);
  std::vector<uint64_t> x(4), y(3);
  p.PackAssignment(site_bits, x.data());
  p.PackPlacement(y.data());

  Partitioning q(num_t, num_a, num_s);
  q.PlaceAttribute(0, 0);  // overwritten by the unpack
  q.UnpackAssignment(site_bits, x.data());
  q.UnpackPlacement(y.data());
  EXPECT_EQ(q, p);

  // 70 attributes: one site's bitset spans two words. At 1 site the packed
  // y is that bitset; at 2 sites the second starts at bit 70, mid-word.
  for (int sites : {1, 2}) {
    Partitioning wide(1, 70, sites);
    wide.AssignTransaction(0, 0);
    for (int a = 0; a < 70; ++a) {
      for (int s = 0; s < sites; ++s) {
        if ((a * 5 + s * 3) % 7 < 3 || a == 69) wide.PlaceAttribute(a, s);
      }
    }
    const int words = Partitioning::PlacementWords(70, sites);
    ASSERT_EQ(words, sites == 1 ? 2 : 3);
    std::vector<uint64_t> packed(words);
    wide.PackPlacement(packed.data());
    Partitioning back(1, 70, sites);
    back.AssignTransaction(0, 0);
    for (int s = 0; s < sites; ++s) back.PlaceAttribute(2, s);  // not in wide
    back.UnpackPlacement(packed.data());
    EXPECT_EQ(back, wide) << sites << " sites";
    for (int s = 0; s < sites; ++s) {
      EXPECT_EQ(back.AttributesOnSite(s), wide.AttributesOnSite(s));
    }
  }
}

TEST(ValidatePartitioningTest, AcceptsFeasible) {
  Instance instance = TinyInstance();
  Partitioning p(1, 2, 2);
  p.AssignTransaction(0, 1);
  p.PlaceAttribute(0, 1);  // x co-located with T
  p.PlaceAttribute(1, 0);
  EXPECT_TRUE(ValidatePartitioning(instance, p).ok());
}

TEST(ValidatePartitioningTest, RejectsUnassignedTransaction) {
  Instance instance = TinyInstance();
  Partitioning p(1, 2, 2);
  p.PlaceAttribute(0, 0);
  p.PlaceAttribute(1, 0);
  EXPECT_EQ(ValidatePartitioning(instance, p).code(),
            StatusCode::kInfeasible);
}

TEST(ValidatePartitioningTest, RejectsUnplacedAttribute) {
  Instance instance = TinyInstance();
  Partitioning p(1, 2, 2);
  p.AssignTransaction(0, 0);
  p.PlaceAttribute(0, 0);
  EXPECT_EQ(ValidatePartitioning(instance, p).code(),
            StatusCode::kInfeasible);
}

TEST(ValidatePartitioningTest, RejectsBrokenSingleSitedness) {
  Instance instance = TinyInstance();
  Partitioning p(1, 2, 2);
  p.AssignTransaction(0, 0);
  p.PlaceAttribute(0, 1);  // read attribute on the other site
  p.PlaceAttribute(1, 0);
  EXPECT_EQ(ValidatePartitioning(instance, p).code(),
            StatusCode::kInfeasible);
}

TEST(ValidatePartitioningTest, DisjointModeRejectsReplicas) {
  Instance instance = TinyInstance();
  Partitioning p(1, 2, 2);
  p.AssignTransaction(0, 0);
  p.PlaceAttribute(0, 0);
  p.PlaceAttribute(0, 1);
  p.PlaceAttribute(1, 0);
  EXPECT_TRUE(ValidatePartitioning(instance, p, false).ok());
  EXPECT_EQ(ValidatePartitioning(instance, p, true).code(),
            StatusCode::kInfeasible);
}

TEST(ValidatePartitioningTest, RejectsDimensionMismatch) {
  Instance instance = TinyInstance();
  Partitioning p(5, 2, 2);
  EXPECT_EQ(ValidatePartitioning(instance, p).code(),
            StatusCode::kInvalidArgument);
}

TEST(SingleSiteBaselineTest, IsAlwaysFeasible) {
  Instance instance = TinyInstance();
  for (int sites = 1; sites <= 3; ++sites) {
    Partitioning p = SingleSiteBaseline(instance, sites);
    EXPECT_TRUE(ValidatePartitioning(instance, p).ok()) << sites;
    EXPECT_TRUE(ValidatePartitioning(instance, p, true).ok()) << sites;
  }
}

}  // namespace
}  // namespace vpart

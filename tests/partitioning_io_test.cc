#include <gtest/gtest.h>

#include <cstdio>

#include "api/advise.h"
#include "cost/partitioning_io.h"
#include "instances/tpcc.h"

namespace vpart {
namespace {

class PartitioningIoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_ = MakeTpccInstance();
    AdviseRequest request;
    request.num_sites = 3;
    auto response = Advise(instance_, request);
    ASSERT_TRUE(response.ok());
    partitioning_ = response->result.partitioning;
  }

  Instance instance_;
  Partitioning partitioning_;
};

TEST_F(PartitioningIoFixture, RoundTripPreservesEverything) {
  const std::string text = WritePartitioningText(instance_, partitioning_);
  auto parsed = ParsePartitioningText(instance_, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value() == partitioning_);
}

TEST_F(PartitioningIoFixture, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/layout_io_test.vpp";
  ASSERT_TRUE(
      WritePartitioningFile(instance_, partitioning_, path).ok());
  auto parsed = ReadPartitioningFile(instance_, path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value() == partitioning_);
  std::remove(path.c_str());
}

TEST_F(PartitioningIoFixture, RejectsMissingHeader) {
  EXPECT_FALSE(ParsePartitioningText(instance_, "txn NewOrder 0\n").ok());
}

TEST_F(PartitioningIoFixture, RejectsUnknownNames) {
  EXPECT_FALSE(
      ParsePartitioningText(instance_, "partitioning 2\ntxn Nope 0\n").ok());
  EXPECT_FALSE(
      ParsePartitioningText(instance_, "partitioning 2\nattr No.Pe 0\n")
          .ok());
}

TEST_F(PartitioningIoFixture, RejectsOutOfRangeSite) {
  EXPECT_FALSE(
      ParsePartitioningText(instance_, "partitioning 2\ntxn NewOrder 5\n")
          .ok());
}

TEST_F(PartitioningIoFixture, RejectsIncompleteFiles) {
  // Missing all attributes.
  std::string text = "partitioning 2\n";
  for (const auto& txn : instance_.workload().transactions()) {
    text += "txn " + txn.name + " 0\n";
  }
  auto parsed = ParsePartitioningText(instance_, text);
  EXPECT_FALSE(parsed.ok());
}

TEST_F(PartitioningIoFixture, RejectsDuplicateTransaction) {
  std::string text = "partitioning 2\ntxn NewOrder 0\ntxn NewOrder 1\n";
  EXPECT_FALSE(ParsePartitioningText(instance_, text).ok());
}

TEST_F(PartitioningIoFixture, CommentsAndBlanksIgnored) {
  std::string text = "# saved layout\n\n" +
                     WritePartitioningText(instance_, partitioning_) +
                     "\n# trailing\n";
  auto parsed = ParsePartitioningText(instance_, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value() == partitioning_);
}

}  // namespace
}  // namespace vpart

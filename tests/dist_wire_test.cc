// Codec round-trips for the coordinator/worker wire (dist/wire_messages.h).
// The distributed-equals-local guarantee rests on these: every number that
// crosses the wire must come back bit-for-bit, the partitioning must
// survive unchanged, and malformed payloads must be rejected rather than
// decoded into something plausible.

#include "dist/wire_messages.h"

#include "cost/partitioning.h"
#include "gtest/gtest.h"
#include "instances/tpcc.h"
#include "solver/advisor.h"

namespace vpart {
namespace {

TEST(DistWireTest, MessageTypeTag) {
  JsonValue message = MakeDistMessage(kDistMsgHeartbeat);
  EXPECT_EQ(DistMessageType(message), "heartbeat");
  EXPECT_EQ(DistMessageType(JsonValue::MakeObject()), "");
  EXPECT_EQ(DistMessageType(JsonValue(3.0)), "");
}

// Every peer integer goes through LongField: absent is the fallback,
// anything but an integer within ±2^53 is an error.
TEST(DistWireTest, PeerIntegersAreChecked) {
  StatusOr<JsonValue> message = JsonValue::Parse(
      R"({"id": 7, "huge": 1e300, "fraction": 2.5, "text": "7"})");
  ASSERT_TRUE(message.ok());
  EXPECT_EQ(LongField(*message, "missing", -1).value_or(0), -1);
  EXPECT_EQ(LongField(*message, "id", -1).value_or(0), 7);
  for (const char* key : {"huge", "fraction", "text"}) {
    SCOPED_TRACE(key);
    StatusOr<long> value = LongField(*message, key, -1);
    ASSERT_FALSE(value.ok());
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DistWireTest, AdvisorResultRoundTripsThroughPartitioningText) {
  const Instance tpcc = MakeTpccInstance();
  AdvisorResult result;
  // A real (if suboptimal) layout: the single-site baseline over 2 sites.
  result.partitioning = SingleSiteBaseline(tpcc, /*num_sites=*/2);
  result.cost = 36572.0;
  result.single_site_cost = 50163.0;
  result.reduction_percent = 27.093674620736397;
  result.breakdown.read_access = 20124.0;
  result.breakdown.write_access = 14048.0;
  result.breakdown.transfer = 300.0;
  result.breakdown.total = 36572.0;
  result.latency_cost = 0.0;
  result.algorithm_used = "ilp+groups";
  result.seconds = 0.0625;
  result.proven_optimal = true;

  auto decoded = DecodeAdvisorResult(tpcc, EncodeAdvisorResult(tpcc, result));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->partitioning == result.partitioning);
  EXPECT_EQ(decoded->cost, result.cost);
  EXPECT_EQ(decoded->single_site_cost, result.single_site_cost);
  EXPECT_EQ(decoded->reduction_percent, result.reduction_percent);
  EXPECT_EQ(decoded->breakdown.read_access, result.breakdown.read_access);
  EXPECT_EQ(decoded->breakdown.write_access, result.breakdown.write_access);
  EXPECT_EQ(decoded->breakdown.transfer, result.breakdown.transfer);
  EXPECT_EQ(decoded->breakdown.total, result.breakdown.total);
  EXPECT_EQ(decoded->algorithm_used, "ilp+groups");
  EXPECT_EQ(decoded->seconds, result.seconds);
  EXPECT_TRUE(decoded->proven_optimal);
}

TEST(DistWireTest, AdvisorResultRequiresCostAndPartitioning) {
  const Instance tpcc = MakeTpccInstance();
  JsonValue incomplete = JsonValue::MakeObject();
  incomplete.Set("cost", 1.0);
  EXPECT_FALSE(DecodeAdvisorResult(tpcc, incomplete).ok());
}

}  // namespace
}  // namespace vpart

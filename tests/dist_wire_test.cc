// Codec round-trips for the coordinator/worker wire (dist/wire_messages.h).
// The distributed-equals-local guarantee rests on these: every number that
// crosses the wire must come back bit-for-bit, bases and fixings must
// survive unchanged, and malformed payloads must be rejected rather than
// decoded into something plausible.

#include "dist/wire_messages.h"

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "cost/partitioning.h"
#include "gtest/gtest.h"
#include "instances/tpcc.h"
#include "lp/model.h"
#include "solver/advisor.h"

namespace vpart {
namespace {

TEST(DistWireTest, MessageTypeTag) {
  JsonValue message = MakeDistMessage(kDistMsgHeartbeat);
  EXPECT_EQ(DistMessageType(message), "heartbeat");
  EXPECT_EQ(DistMessageType(JsonValue::MakeObject()), "");
  EXPECT_EQ(DistMessageType(JsonValue(3.0)), "");
}

TEST(DistWireTest, BasisRoundTripsExactly) {
  const std::vector<int> rows = {5, 2, 9, 0};
  const std::vector<uint8_t> states = {0, 1, 2, 3, 1, 0, 2, 1, 3, 0};
  const auto basis =
      std::make_shared<const Basis>(Basis::FromParts(rows, states));
  ASSERT_TRUE(basis->valid());

  auto decoded = DecodeBasis(EncodeBasis(basis));
  ASSERT_TRUE(decoded.ok());
  ASSERT_NE(*decoded, nullptr);
  EXPECT_TRUE((*decoded)->valid());
  EXPECT_EQ((*decoded)->basic_of_row(), rows);
  EXPECT_EQ((*decoded)->states(), states);
}

TEST(DistWireTest, NullBasisEncodesAsNull) {
  const JsonValue encoded = EncodeBasis(nullptr);
  EXPECT_TRUE(encoded.is_null());
  auto decoded = DecodeBasis(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, nullptr);
}

TEST(DistWireTest, FixingsRoundTrip) {
  std::vector<BoundFix> fixings;
  fixings.push_back({3, 0.0, 0.0});
  fixings.push_back({17, 1.0, 1.0});
  fixings.push_back({4, 0.0, 1.0});

  auto decoded = DecodeFixings(EncodeFixings(fixings));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), fixings.size());
  for (size_t i = 0; i < fixings.size(); ++i) {
    EXPECT_EQ((*decoded)[i].column, fixings[i].column);
    EXPECT_EQ((*decoded)[i].lower, fixings[i].lower);
    EXPECT_EQ((*decoded)[i].upper, fixings[i].upper);
  }
}

TEST(DistWireTest, MalformedFixingsAreRejected) {
  JsonValue not_an_array = JsonValue(1.0);
  EXPECT_FALSE(DecodeFixings(not_an_array).ok());

  JsonValue short_tuple = JsonValue::MakeArray();
  JsonValue pair = JsonValue::MakeArray();
  pair.Append(1.0);
  pair.Append(0.0);
  short_tuple.Append(std::move(pair));
  EXPECT_FALSE(DecodeFixings(short_tuple).ok());

  JsonValue crossed = JsonValue::MakeArray();
  JsonValue bounds = JsonValue::MakeArray();
  bounds.Append(1.0);
  bounds.Append(1.0);   // lower
  bounds.Append(0.0);   // upper < lower
  crossed.Append(std::move(bounds));
  EXPECT_FALSE(DecodeFixings(crossed).ok());
}

// A peer's column must be an integer in [0, INT_MAX] before it reaches an
// int: 1e300 would overflow the cast (undefined behaviour), and 2.5 would
// silently fix column 2.
TEST(DistWireTest, FixingColumnsMustBeColumnIndices) {
  for (const char* text : {"[[1e300, 0, 1]]", "[[2.5, 0, 1]]",
                           "[[-1, 0, 1]]", "[[\"3\", 0, 1]]"}) {
    SCOPED_TRACE(text);
    StatusOr<JsonValue> fixings = JsonValue::Parse(text);
    ASSERT_TRUE(fixings.ok());
    StatusOr<std::vector<BoundFix>> decoded = DecodeFixings(*fixings);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DistWireTest, BasisRowsMustBeColumnIndices) {
  for (const char* text : {R"({"rows": [0, 1e300], "states": "01"})",
                           R"({"rows": [0, 2.5], "states": "01"})",
                           R"({"rows": [-1, 0], "states": "01"})"}) {
    SCOPED_TRACE(text);
    StatusOr<JsonValue> basis = JsonValue::Parse(text);
    ASSERT_TRUE(basis.ok());
    StatusOr<std::shared_ptr<const Basis>> decoded = DecodeBasis(*basis);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

// Every other peer integer goes through LongField: absent is the fallback,
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

  StatusOr<JsonValue> stats = JsonValue::Parse(R"({"lp_solves": 1e300})");
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(DecodeLpStats(*stats).ok());
  StatusOr<JsonValue> mip =
      JsonValue::Parse(R"({"status": "INFEASIBLE", "nodes": 2.5})");
  ASSERT_TRUE(mip.ok());
  EXPECT_FALSE(DecodeMipResult(*mip).ok());
}

TEST(DistWireTest, LpStatsRoundTripAllCounters) {
  LpSolveStats stats;
  stats.lp_solves = 20;
  stats.warm_starts = 19;
  stats.cold_starts = 1;
  stats.warm_start_failures = 2;
  stats.primal_iterations = 568;
  stats.phase1_iterations = 265;
  stats.dual_iterations = 525;
  stats.factorizations = 23;
  stats.ft_updates = 1077;
  stats.bound_flips = 45;
  stats.se_resets = 119;
  stats.refactor_updates = 5;
  stats.refactor_fill = 1;
  stats.refactor_stability = 3;
  stats.audits_run = 7;
  stats.audit_failures = 1;
  stats.lp_seconds = 0.041156121000000004;

  auto decoded = DecodeLpStats(EncodeLpStats(stats));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->lp_solves, stats.lp_solves);
  EXPECT_EQ(decoded->warm_starts, stats.warm_starts);
  EXPECT_EQ(decoded->cold_starts, stats.cold_starts);
  EXPECT_EQ(decoded->warm_start_failures, stats.warm_start_failures);
  EXPECT_EQ(decoded->primal_iterations, stats.primal_iterations);
  EXPECT_EQ(decoded->phase1_iterations, stats.phase1_iterations);
  EXPECT_EQ(decoded->dual_iterations, stats.dual_iterations);
  EXPECT_EQ(decoded->factorizations, stats.factorizations);
  EXPECT_EQ(decoded->ft_updates, stats.ft_updates);
  EXPECT_EQ(decoded->bound_flips, stats.bound_flips);
  EXPECT_EQ(decoded->se_resets, stats.se_resets);
  EXPECT_EQ(decoded->refactor_updates, stats.refactor_updates);
  EXPECT_EQ(decoded->refactor_fill, stats.refactor_fill);
  EXPECT_EQ(decoded->refactor_stability, stats.refactor_stability);
  EXPECT_EQ(decoded->audits_run, stats.audits_run);
  EXPECT_EQ(decoded->audit_failures, stats.audit_failures);
  // %.17g round-trips doubles exactly — bit-for-bit, not approximately.
  EXPECT_EQ(decoded->lp_seconds, stats.lp_seconds);
}

TEST(DistWireTest, MipResultRoundTripWithIncumbent) {
  MipResult result;
  result.status = MipStatus::kOptimal;
  result.objective = 4088.0000000000001;  // exercise the %.17g tail
  result.proof.best_bound = 4087.9993279999999;
  result.values = {1.0, 0.0, 1.0, 0.25, 0.0};
  result.proof.nodes = 1323;
  result.proof.lp_stats.primal_iterations = 40;
  result.proof.lp_stats.dual_iterations = 60;
  result.seconds = 7.5;
  result.proof.search_exhausted = true;
  result.proof.pruned_by_external_bound = true;

  auto decoded = DecodeMipResult(EncodeMipResult(result));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status, MipStatus::kOptimal);
  EXPECT_EQ(decoded->objective, result.objective);
  EXPECT_EQ(decoded->proof.best_bound, result.proof.best_bound);
  EXPECT_EQ(decoded->values, result.values);
  EXPECT_EQ(decoded->proof.nodes, result.proof.nodes);
  EXPECT_EQ(decoded->proof.lp_stats.total_iterations(), 100);
  EXPECT_TRUE(decoded->proof.search_exhausted);
  EXPECT_TRUE(decoded->proof.pruned_by_external_bound);
}

TEST(DistWireTest, InfeasibleMipResultShipsNoIncumbentOrBound) {
  MipResult result;
  result.status = MipStatus::kInfeasible;
  result.proof.best_bound = -kLpInfinity;  // non-finite: must not serialize
  result.proof.search_exhausted = true;

  const JsonValue encoded = EncodeMipResult(result);
  EXPECT_EQ(encoded.Find("objective"), nullptr);
  EXPECT_EQ(encoded.Find("values"), nullptr);
  EXPECT_EQ(encoded.Find("best_bound"), nullptr);

  auto decoded = DecodeMipResult(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status, MipStatus::kInfeasible);
  EXPECT_FALSE(decoded->has_incumbent());
  EXPECT_EQ(decoded->proof.best_bound, -kLpInfinity);
  EXPECT_TRUE(decoded->proof.search_exhausted);
}

TEST(DistWireTest, MipResultRejectsUnknownStatus) {
  JsonValue bogus = JsonValue::MakeObject();
  bogus.Set("status", "SOLVED_GREAT");
  EXPECT_FALSE(DecodeMipResult(bogus).ok());
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

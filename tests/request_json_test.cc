#include "api/request_json.h"

#include <gtest/gtest.h>

#include <string>

#include "engine/batch_advisor.h"
#include "instances/tpcc.h"

namespace vpart {
namespace {

bool Contains(const Status& status, const std::string& needle) {
  return status.message().find(needle) != std::string::npos;
}

TEST(RequestJsonTest, UnknownTopLevelKeyNamesKeyAndListsValidOnes) {
  auto bad = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "num_sties": 3
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "unknown key \"num_sties\""))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "valid keys:"))
      << bad.status().ToString();
  // The listing must contain the key the user most plausibly meant.
  EXPECT_TRUE(Contains(bad.status(), "num_sites"))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "serve")) << bad.status().ToString();
}

TEST(RequestJsonTest, UnknownNestedKeyListsTheBlocksValidKeys) {
  auto bad = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "ilp": {"mipgap": 0.01}
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "unknown key \"mipgap\""))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "\"ilp\"")) << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "mip_gap")) << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "bnb_threads"))
      << bad.status().ToString();
}

TEST(RequestJsonTest, MissingInstanceNamesTheKeyAndListsValidOnes) {
  auto bad = ParseCliRequest(R"({"num_sites": 3})");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "missing required key \"instance\""))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "valid keys:"))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "solver")) << bad.status().ToString();
}

TEST(RequestJsonTest, InstanceBlockErrorsListItsOwnKeys) {
  auto bad = ParseCliRequest(R"({
    "instance": {"biultin": "tpcc"}
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "unknown key \"biultin\""))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "builtin")) << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "random")) << bad.status().ToString();
}

TEST(RequestJsonTest, ParsesServeEnvelope) {
  auto cli = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "serve": {"id": "req-42", "deadline_seconds": 2.5, "qos": "batch"}
  })");
  ASSERT_TRUE(cli.ok()) << cli.status().ToString();
  EXPECT_EQ(cli->serve.id, "req-42");
  EXPECT_DOUBLE_EQ(cli->serve.deadline_seconds, 2.5);
  EXPECT_EQ(cli->serve.qos, ServeQos::kBatch);
}

TEST(RequestJsonTest, ServeEnvelopeDefaults) {
  auto cli = ParseCliRequest(R"({"instance": {"builtin": "tpcc"}})");
  ASSERT_TRUE(cli.ok()) << cli.status().ToString();
  EXPECT_TRUE(cli->serve.id.empty());
  EXPECT_DOUBLE_EQ(cli->serve.deadline_seconds, 0.0);
  EXPECT_EQ(cli->serve.qos, ServeQos::kInteractive);
}

TEST(RequestJsonTest, RejectsBadServeQosNamingTheValue) {
  auto bad = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "serve": {"qos": "urgent"}
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "serve.qos")) << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "urgent")) << bad.status().ToString();
}

TEST(RequestJsonTest, RejectsUnknownServeKeyListingValidOnes) {
  auto bad = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "serve": {"deadline": 3}
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "unknown key \"deadline\""))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "deadline_seconds"))
      << bad.status().ToString();
}

// Thread counts are bounded at admission: 1,000,000 or −1 for either key
// is an InvalidArgument naming the key, and the bound itself is admitted.
// The parser runs before any solve, so none of this starts a thread.
TEST(RequestJsonTest, RejectsThreadCountsOutsideTheBound) {
  const std::string bound = std::to_string(kMaxRequestThreads);
  for (const std::string value : {"1000000", "-1"}) {
    auto threads = ParseCliRequest(
        R"({"instance": {"builtin": "tpcc"}, "solver": "sa", "num_threads": )" +
        value + "}");
    ASSERT_FALSE(threads.ok()) << value;
    EXPECT_EQ(threads.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(Contains(threads.status(),
                         "\"num_threads\" must be in [0, " + bound + "]"))
        << threads.status().ToString();

    auto bnb = ParseCliRequest(
        R"({"instance": {"builtin": "tpcc"}, "solver": "sa",
            "ilp": {"bnb_threads": )" +
        value + "}}");
    ASSERT_FALSE(bnb.ok()) << value;
    EXPECT_EQ(bnb.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(Contains(bnb.status(), "\"ilp.bnb_threads\" must be in"))
        << bnb.status().ToString();
  }
  auto at_bound = ParseCliRequest(
      R"({"instance": {"builtin": "tpcc"}, "num_threads": )" + bound +
      R"(, "ilp": {"bnb_threads": )" + bound + "}}");
  EXPECT_TRUE(at_bound.ok()) << at_bound.status().ToString();
}

TEST(RequestJsonTest, BatchAdvisorResultSerializesSharedDocument) {
  Instance instance = MakeTpccInstance();
  BatchAdvisorResult result;
  result.combined.partitioning = SingleSiteBaseline(instance, 1);
  result.combined.algorithm_used = "test";
  result.threads_used = 2;
  JsonValue out =
      BatchAdvisorResultToJson(instance, result, /*emit_partitioning=*/true);
  EXPECT_EQ(out.Find("mode")->as_string(), "batch");
  EXPECT_EQ(out.Find("instance")->as_string(), instance.name());
  ASSERT_NE(out.Find("combined"), nullptr);
  EXPECT_NE(out.Find("combined")->Find("partitioning"), nullptr);
  JsonValue no_layout =
      BatchAdvisorResultToJson(instance, result, /*emit_partitioning=*/false);
  EXPECT_EQ(no_layout.Find("combined")->Find("partitioning"), nullptr);
}

}  // namespace
}  // namespace vpart

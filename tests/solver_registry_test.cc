#include "api/solver_registry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/advise.h"
#include "api/request_json.h"
#include "instances/tpcc.h"
#include "workload/instance.h"

namespace vpart {
namespace {

/// Tiny two-table webshop used across the api tests.
StatusOr<Instance> MakeToyInstance() {
  InstanceBuilder builder("toy");
  const int users = builder.AddTable("users");
  const int u_id = builder.AddAttribute(users, "id", 8);
  const int u_email = builder.AddAttribute(users, "email", 32);
  const int u_bio = builder.AddAttribute(users, "bio", 400);
  const int orders = builder.AddTable("orders");
  const int o_id = builder.AddAttribute(orders, "id", 8);
  const int o_total = builder.AddAttribute(orders, "total", 8);
  const int place = builder.AddTransaction("Place");
  builder.AddQuery(place, "read_user", QueryKind::kRead, 100,
                   {u_id, u_email});
  builder.AddQuery(place, "insert", QueryKind::kWrite, 100, {o_id, o_total});
  const int report = builder.AddTransaction("Report");
  builder.AddQuery(report, "scan", QueryKind::kRead, 1, {u_id, u_bio}, {},
                   /*default_rows=*/10);
  return builder.Build();
}

TEST(SolverRegistryTest, BuiltinsAreRegistered) {
  for (const char* name : {kSolverIlp, kSolverSa, kSolverExhaustive,
                           kSolverIncremental, kSolverPortfolio}) {
    const SolverEntry* entry = FindSolver(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_STREQ(entry->name, name);
  }
  EXPECT_EQ(FindSolver("no-such-solver"), nullptr);
  EXPECT_EQ(FindSolver(kSolverAuto), nullptr);  // a policy, not a row
  EXPECT_EQ(SolverNames(),
            (std::vector<std::string>{kSolverExhaustive, kSolverIlp,
                                      kSolverIncremental, kSolverPortfolio,
                                      kSolverSa}));
}

// Every row reaches its own solve function: a row wired to the wrong one
// would still answer, under another solver's label.
TEST(SolverRegistryTest, EveryTableRowRunsThroughAdvise) {
  auto instance = MakeToyInstance();
  ASSERT_TRUE(instance.ok());
  for (const SolverEntry& entry : kSolvers) {
    AdviseRequest request;
    request.solver = entry.name;
    request.time_limit_seconds = 5.0;
    auto response = Advise(*instance, request);
    ASSERT_TRUE(response.ok()) << entry.name << ": "
                               << response.status().ToString();
    EXPECT_EQ(response->solver_used, entry.name);
    EXPECT_EQ(response->result.algorithm_used.rfind(entry.name, 0), 0u)
        << entry.name << " answered as " << response->result.algorithm_used;
  }
}

TEST(SolverRegistryTest, ResolveAutoPicksExhaustiveForTinyInstances) {
  auto instance = MakeToyInstance();
  ASSERT_TRUE(instance.ok());
  AdviseRequest request;
  std::vector<std::string> warnings;
  auto resolved = ResolveSolver(*instance, request, &warnings);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, kSolverExhaustive);
  EXPECT_TRUE(warnings.empty());
}

TEST(SolverRegistryTest, ResolveAutoPicksPortfolioWhenThreadsGranted) {
  auto instance = MakeToyInstance();
  ASSERT_TRUE(instance.ok());
  AdviseRequest request;
  request.num_threads = 4;
  std::vector<std::string> warnings;
  auto resolved = ResolveSolver(*instance, request, &warnings);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, kSolverPortfolio);
  EXPECT_TRUE(warnings.empty());
}

TEST(SolverRegistryTest, ResolveAutoWarnsInsteadOfSilentLatencyDowngrade) {
  auto instance = MakeToyInstance();
  ASSERT_TRUE(instance.ok());
  AdviseRequest request;
  request.num_threads = 4;
  request.latency_penalty = 1.0;
  std::vector<std::string> warnings;
  auto resolved = ResolveSolver(*instance, request, &warnings);
  ASSERT_TRUE(resolved.ok());
  // The portfolio cannot price the Appendix-A term; auto must surface the
  // downgrade and route to the parallel-B&B ILP (which can).
  EXPECT_EQ(*resolved, kSolverIlp);
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings.front().find("latency_penalty"), std::string::npos);
  EXPECT_NE(warnings.front().find(kSolverPortfolio), std::string::npos);
}

TEST(SolverRegistryTest, ResolveWarnsForExplicitSolverIgnoringLatency) {
  auto instance = MakeToyInstance();
  ASSERT_TRUE(instance.ok());
  AdviseRequest request;
  request.solver = kSolverSa;
  request.latency_penalty = 2.0;
  std::vector<std::string> warnings;
  auto resolved = ResolveSolver(*instance, request, &warnings);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, kSolverSa);
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings.front().find("does not price"), std::string::npos);

  // The ILP prices the latency term: no warning.
  request.solver = kSolverIlp;
  warnings.clear();
  resolved = ResolveSolver(*instance, request, &warnings);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, kSolverIlp);
  EXPECT_TRUE(warnings.empty());

  // The portfolio races heuristics that do not.
  request.solver = kSolverPortfolio;
  warnings.clear();
  resolved = ResolveSolver(*instance, request, &warnings);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, kSolverPortfolio);
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings.front().find("does not price"), std::string::npos);
}

TEST(SolverRegistryTest, ResolveRejectsUnknownSolver) {
  auto instance = MakeToyInstance();
  ASSERT_TRUE(instance.ok());
  AdviseRequest request;
  request.solver = "hypergraph";
  auto resolved = ResolveSolver(*instance, request, nullptr);
  EXPECT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// request_json: the CLI's JSON contract.
// ---------------------------------------------------------------------------

// Advise bounds the thread counts of a request built in code, as the
// parser bounds the wire's, before anything solves. The requests name SA,
// which starts no thread, so even a missing check would start none.
TEST(AdviseTest, RejectsThreadCountsOutsideTheBound) {
  Instance tpcc = MakeTpccInstance();
  for (int count : {1000000, -1}) {
    AdviseRequest request;
    request.solver = kSolverSa;
    request.time_limit_seconds = 1;
    request.num_threads = count;
    StatusOr<AdviseResponse> threads = Advise(tpcc, request);
    ASSERT_FALSE(threads.ok()) << count;
    EXPECT_EQ(threads.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(threads.status().message().find("num_threads"),
              std::string::npos)
        << threads.status().ToString();

    request.num_threads = 1;
    request.ilp.bnb_threads = count;
    StatusOr<AdviseResponse> bnb = Advise(tpcc, request);
    ASSERT_FALSE(bnb.ok()) << count;
    EXPECT_EQ(bnb.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(bnb.status().message().find("ilp.bnb_threads"),
              std::string::npos)
        << bnb.status().ToString();
  }
}

TEST(RequestJsonTest, ParsesFullRequest) {
  auto cli = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "solver": "sa",
    "num_sites": 4,
    "num_threads": 2,
    "cost": {"p": 16, "lambda": 0.2},
    "allow_replication": false,
    "latency_penalty": 0.5,
    "time_limit_seconds": 1.5,
    "seed": 9,
    "sa": {"max_restarts": 3, "slice_seconds": 0.1},
    "ilp": {"mip_gap": 0.01},
    "emit_events": true
  })");
  ASSERT_TRUE(cli.ok()) << cli.status().ToString();
  EXPECT_EQ(cli->builtin, "tpcc");
  EXPECT_EQ(cli->request.solver, "sa");
  EXPECT_EQ(cli->request.num_sites, 4);
  EXPECT_EQ(cli->request.num_threads, 2);
  EXPECT_DOUBLE_EQ(cli->request.cost.p, 16.0);
  EXPECT_DOUBLE_EQ(cli->request.cost.lambda, 0.2);
  EXPECT_FALSE(cli->request.allow_replication);
  EXPECT_DOUBLE_EQ(cli->request.latency_penalty, 0.5);
  EXPECT_DOUBLE_EQ(cli->request.time_limit_seconds, 1.5);
  EXPECT_EQ(cli->request.seed, 9u);
  EXPECT_EQ(cli->request.sa.max_restarts, 3);
  EXPECT_DOUBLE_EQ(cli->request.sa.slice_seconds, 0.1);
  EXPECT_DOUBLE_EQ(cli->request.ilp.mip_gap, 0.01);
  EXPECT_TRUE(cli->emit_events);
  EXPECT_TRUE(cli->emit_partitioning);
}

TEST(RequestJsonTest, RejectsBadRequests) {
  // A typo must not silently become a default.
  EXPECT_FALSE(ParseCliRequest(
                   R"({"instance": {"builtin": "tpcc"}, "num_site": 3})")
                   .ok());
  EXPECT_FALSE(ParseCliRequest(
                   R"({"instance": {"builtin": "tpcc"},
                       "sa": {"restarts": 3}})")
                   .ok());
  // The coordinator shards batch requests only; there is no "dist" block.
  EXPECT_FALSE(ParseCliRequest(
                   R"({"instance": {"builtin": "tpcc"},
                       "dist": {"mode": "tables"}})")
                   .ok());
  // Instance spec must name exactly one source.
  EXPECT_FALSE(ParseCliRequest(R"({"solver": "sa"})").ok());
  EXPECT_FALSE(
      ParseCliRequest(R"({"instance": {"builtin": "tpcc", "file": "x"}})")
          .ok());
  EXPECT_FALSE(ParseCliRequest(R"({"instance": {"builtin": "mysql"}})").ok());
  // Value validation.
  EXPECT_FALSE(ParseCliRequest(
                   R"({"instance": {"builtin": "tpcc"}, "num_sites": 0})")
                   .ok());
  EXPECT_FALSE(ParseCliRequest(
                   R"({"instance": {"builtin": "tpcc"}, "num_sites": 2.5})")
                   .ok());
  EXPECT_FALSE(ParseCliRequest(
                   R"({"instance": {"builtin": "tpcc"}, "num_sites": 1e10})")
                   .ok());
  EXPECT_FALSE(ParseCliRequest(
                   R"({"instance": {"builtin": "tpcc"},
                       "solver": "gurobi"})")
                   .ok());
}

TEST(RequestJsonTest, TpccRequestRoundTripsToResponse) {
  auto cli = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "solver": "exhaustive",
    "num_sites": 3
  })");
  ASSERT_TRUE(cli.ok());
  auto instance = LoadCliInstance(*cli);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->num_attributes(), 92);
  auto response = Advise(*instance, cli->request);
  ASSERT_TRUE(response.ok());

  JsonValue json = AdviseResponseToJson(*instance, *response,
                                        cli->emit_partitioning, {});
  auto reparsed = JsonValue::Parse(json.Serialize(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Find("status")->as_string(), "complete");
  EXPECT_EQ(reparsed->Find("solver_used")->as_string(), "exhaustive");
  EXPECT_GT(reparsed->Find("cost")->as_number(), 0.0);
  EXPECT_GT(reparsed->Find("single_site_cost")->as_number(),
            reparsed->Find("cost")->as_number());
  const JsonValue* partitioning = reparsed->Find("partitioning");
  ASSERT_NE(partitioning, nullptr);
  EXPECT_EQ(partitioning->Find("transactions")->as_object().size(), 5u);
  EXPECT_EQ(partitioning->Find("attributes")->as_object().size(), 92u);
}

TEST(RequestJsonTest, RandomInstanceRequestRoundTripsToResponse) {
  auto cli = ParseCliRequest(R"({
    "instance": {"random": "rndAt8x15"},
    "solver": "incremental",
    "num_sites": 2,
    "time_limit_seconds": 1,
    "emit_partitioning": false
  })");
  ASSERT_TRUE(cli.ok());
  auto instance = LoadCliInstance(*cli);
  ASSERT_TRUE(instance.ok());
  auto response = Advise(*instance, cli->request);
  ASSERT_TRUE(response.ok());
  JsonValue json = AdviseResponseToJson(*instance, *response,
                                        cli->emit_partitioning, {});
  auto reparsed = JsonValue::Parse(json.Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Find("solver_used")->as_string(), "incremental");
  EXPECT_EQ(reparsed->Find("partitioning"), nullptr);
  EXPECT_GT(reparsed->Find("cost")->as_number(), 0.0);
}

}  // namespace
}  // namespace vpart

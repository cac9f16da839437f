#include "api/solver_registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/advise.h"
#include "api/request_json.h"
#include "instances/tpcc.h"
#include "solver/sa_solver.h"
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
  SolverRegistry& registry = SolverRegistry::Global();
  for (const char* name : {kSolverIlp, kSolverSa, kSolverExhaustive,
                           kSolverIncremental, kSolverPortfolio}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    auto solver = registry.Create(name);
    EXPECT_TRUE(solver.ok()) << name;
  }
  EXPECT_FALSE(registry.Contains("no-such-solver"));
  EXPECT_FALSE(registry.Create("no-such-solver").ok());
}

TEST(SolverRegistryTest, CapabilitiesMatchTheDesign) {
  SolverRegistry& registry = SolverRegistry::Global();
  auto ilp = registry.Capabilities(kSolverIlp);
  ASSERT_TRUE(ilp.ok());
  EXPECT_TRUE(ilp->exact);
  EXPECT_TRUE(ilp->latency_penalty);
  EXPECT_TRUE(ilp->multi_threaded);
  auto sa = registry.Capabilities(kSolverSa);
  ASSERT_TRUE(sa.ok());
  EXPECT_FALSE(sa->exact);
  EXPECT_FALSE(sa->latency_penalty);
  auto portfolio = registry.Capabilities(kSolverPortfolio);
  ASSERT_TRUE(portfolio.ok());
  EXPECT_TRUE(portfolio->multi_threaded);
  EXPECT_FALSE(portfolio->latency_penalty);
  EXPECT_FALSE(portfolio->deterministic);
}

TEST(SolverRegistryTest, ResolveAutoPicksExhaustiveForTinyInstances) {
  auto instance = MakeToyInstance();
  ASSERT_TRUE(instance.ok());
  AdviseRequest request;
  std::vector<std::string> warnings;
  auto resolved =
      SolverRegistry::Global().Resolve(*instance, request, &warnings);
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
  auto resolved =
      SolverRegistry::Global().Resolve(*instance, request, &warnings);
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
  auto resolved =
      SolverRegistry::Global().Resolve(*instance, request, &warnings);
  ASSERT_TRUE(resolved.ok());
  // The portfolio cannot price the Appendix-A term; the registry must
  // surface the downgrade and route to the parallel-B&B ILP (which can).
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
  auto resolved =
      SolverRegistry::Global().Resolve(*instance, request, &warnings);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, kSolverSa);
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings.front().find("does not price"), std::string::npos);
}

TEST(SolverRegistryTest, ResolveRejectsUnknownSolver) {
  auto instance = MakeToyInstance();
  ASSERT_TRUE(instance.ok());
  AdviseRequest request;
  request.solver = "hypergraph";
  auto resolved =
      SolverRegistry::Global().Resolve(*instance, request, nullptr);
  EXPECT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kNotFound);
}

/// A custom backend: places everything single-site (always feasible).
class SingleSiteSolver : public Solver {
 public:
  StatusOr<SolverRun> Solve(const CostCoefficients& cost_model,
                            const AdviseRequest& request,
                            const SolveContext& ctx) override {
    (void)ctx;
    const Instance& instance = cost_model.instance();
    Partitioning p(instance.num_transactions(), instance.num_attributes(),
                   request.num_sites);
    for (int t = 0; t < instance.num_transactions(); ++t) {
      p.AssignTransaction(t, 0);
    }
    ComputeOptimalY(cost_model, p, request.allow_replication);
    SolverRun run;
    run.partitioning = std::move(p);
    run.algorithm = "single-site";
    return run;
  }
};

TEST(SolverRegistryTest, CustomSolverPlugsIntoAdvise) {
  SolverRegistry& registry = SolverRegistry::Global();
  SolverCapabilities capabilities;
  ASSERT_TRUE(registry
                  .Register("single-site", capabilities,
                            []() { return std::make_unique<SingleSiteSolver>(); })
                  .ok());
  // Duplicate registration must fail loudly.
  EXPECT_EQ(registry
                .Register("single-site", capabilities,
                          []() { return std::make_unique<SingleSiteSolver>(); })
                .code(),
            StatusCode::kAlreadyExists);

  auto instance = MakeToyInstance();
  ASSERT_TRUE(instance.ok());
  AdviseRequest request;
  request.solver = "single-site";
  auto response = Advise(*instance, request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->solver_used, "single-site");
  EXPECT_NE(response->result.algorithm_used.find("single-site"),
            std::string::npos);
  // Everything on site 0: the recommendation equals the baseline.
  EXPECT_DOUBLE_EQ(response->result.cost, response->result.single_site_cost);

  ASSERT_TRUE(registry.Unregister("single-site").ok());
  EXPECT_FALSE(registry.Contains("single-site"));
  EXPECT_EQ(registry.Unregister("single-site").code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// request_json: the CLI's JSON contract.
// ---------------------------------------------------------------------------

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

// End-to-end distributed solving (dist/coordinator.h + dist/worker.h):
// coordinator and workers inside one process (InProcessWorker threads —
// what the TSan CI leg runs), plus a spawned-process leg with a mid-solve
// SIGKILL. The load-bearing contracts:
//
//   * equivalence — a distributed solve (subtree or table sharding, any
//     worker count) certifies the same objective as the single-process
//     solve of the same request;
//   * fault tolerance — killing a worker mid-session loses no units: the
//     ledger requeues them and the final result is still proven optimal
//     and passes the independent SolutionCertifier;
//   * clean teardown — Shutdown() joins every thread (TSan-checked).

#include <sys/types.h>
#include <csignal>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/advise.h"
#include "api/request_json.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "engine/batch_advisor.h"
#include "gtest/gtest.h"
#include "instances/random_instance.h"
#include "instances/tpcc.h"

namespace vpart {
namespace {

std::string TestSocket(const char* tag) {
  return "/tmp/vpart_dist_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

/// Coordinator plus `n` in-process workers, ready to dispatch.
struct Cluster {
  std::unique_ptr<DistCoordinator> coordinator;
  std::vector<std::unique_ptr<InProcessWorker>> workers;
};

Cluster StartCluster(const char* tag, int num_workers,
                     const WorkerOptions& first_worker_options = {}) {
  DistCoordinator::Options options;
  options.socket_path = TestSocket(tag);
  options.num_workers = num_workers;
  options.spawn_workers = false;
  Cluster cluster;
  auto started = DistCoordinator::Start(options);
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  if (!started.ok()) return cluster;
  cluster.coordinator = std::move(*started);
  for (int w = 0; w < num_workers; ++w) {
    cluster.workers.push_back(std::make_unique<InProcessWorker>(
        options.socket_path, w == 0 ? first_worker_options
                                    : WorkerOptions{}));
  }
  EXPECT_TRUE(cluster.coordinator->WaitForWorkers(num_workers, 30.0));
  return cluster;
}

/// Which path answered a subtree request: "dist[N]" when the frontier
/// shipped N units to workers, "dist(serial)" when the tree closed inside
/// the coordinator's ExpandFrontier (either may carry a "+groups" suffix).
/// Asserting it keeps a test on the path it is meant to exercise when a
/// tighter model shrinks the tree.
bool AnsweredBy(const AdviseResponse& response, const char* prefix) {
  return response.result.algorithm_used.rfind(prefix, 0) == 0;
}

/// rndAt8x15 or rndAt16x15 at 2 sites: trees that still fill the frontier.
Instance RandomInstance(const char* name) {
  auto instance = MakeNamedRandomInstance(name);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return instance.ok() ? std::move(*instance) : Instance();
}

CliRequest SubtreeRequest(double time_limit = 60.0) {
  CliRequest cli;
  cli.request.solver = "ilp";
  cli.request.num_sites = 3;
  cli.request.time_limit_seconds = time_limit;
  cli.request.ilp.warm_start_seconds = 0.1;
  cli.request.certify = true;  // independent SolutionCertifier pass
  cli.request.obs = ObsLevel::kOff;
  return cli;
}

TEST(DistSubtreeTest, TpccMatchesSingleProcessWithTwoWorkers) {
  const Instance tpcc = MakeTpccInstance();
  CliRequest cli = SubtreeRequest();
  auto local = Advise(tpcc, cli.request);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_TRUE(local->result.proven_optimal);
  ASSERT_TRUE(local->certified);

  Cluster cluster = StartCluster("t2", /*num_workers=*/2);
  ASSERT_NE(cluster.coordinator, nullptr);
  auto dist = cluster.coordinator->AdviseDistributed(tpcc, cli);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(dist->result.cost, local->result.cost);
  EXPECT_TRUE(dist->result.proven_optimal);
  EXPECT_TRUE(dist->certified);
  EXPECT_EQ(dist->solver_used, "dist");
  // TPC-C@3's tree closes inside the coordinator: no unit ships.
  EXPECT_TRUE(AnsweredBy(*dist, "dist(serial)"))
      << dist->result.algorithm_used;
  EXPECT_EQ(cluster.coordinator->requeued_total(), 0);
  cluster.coordinator->Shutdown();
  for (auto& worker : cluster.workers) {
    EXPECT_TRUE(worker->Join().ok());
  }
}

TEST(DistSubtreeTest, Random16x15MatchesSingleProcessWithFourWorkers) {
  const Instance instance = RandomInstance("rndAt16x15");
  CliRequest cli = SubtreeRequest();
  cli.request.num_sites = 2;
  cli.dist.frontier_units = 12;
  auto local = Advise(instance, cli.request);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_TRUE(local->result.proven_optimal);

  Cluster cluster = StartCluster("t4", /*num_workers=*/4);
  ASSERT_NE(cluster.coordinator, nullptr);
  auto dist = cluster.coordinator->AdviseDistributed(instance, cli);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(dist->result.cost, local->result.cost);
  EXPECT_TRUE(dist->result.proven_optimal);
  EXPECT_TRUE(dist->certified);
  EXPECT_TRUE(AnsweredBy(*dist, "dist[")) << dist->result.algorithm_used;
  cluster.coordinator->Shutdown();
}

TEST(DistSubtreeTest, RandomInstanceMatchesSingleProcess) {
  const Instance instance = RandomInstance("rndAt8x15");
  CliRequest cli = SubtreeRequest();
  cli.request.num_sites = 2;
  auto local = Advise(instance, cli.request);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_TRUE(local->result.proven_optimal);

  // Four workers share the frontier: the objective is bit-equal to the
  // local solve, the proof is kept and certified, and no unit is lost or
  // requeued. What sharding costs in time is perfbench's dist.* metrics.
  Cluster cluster = StartCluster("rnd", /*num_workers=*/4);
  ASSERT_NE(cluster.coordinator, nullptr);
  auto dist = cluster.coordinator->AdviseDistributed(instance, cli);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(dist->result.cost, local->result.cost);
  EXPECT_TRUE(dist->result.proven_optimal);
  EXPECT_TRUE(dist->certified);
  EXPECT_TRUE(AnsweredBy(*dist, "dist[")) << dist->result.algorithm_used;
  EXPECT_EQ(cluster.coordinator->requeued_total(), 0);
  cluster.coordinator->Shutdown();
}

TEST(DistSubtreeTest, SequentialSessionsReuseTheCluster) {
  const Instance instance = RandomInstance("rndAt8x15");
  CliRequest cli = SubtreeRequest();
  cli.request.num_sites = 2;
  auto local = Advise(instance, cli.request);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  Cluster cluster = StartCluster("seq", /*num_workers=*/2);
  ASSERT_NE(cluster.coordinator, nullptr);
  for (int round = 0; round < 2; ++round) {
    auto dist = cluster.coordinator->AdviseDistributed(instance, cli);
    ASSERT_TRUE(dist.ok()) << "round " << round << ": "
                           << dist.status().ToString();
    EXPECT_EQ(dist->result.cost, local->result.cost);
    EXPECT_TRUE(dist->result.proven_optimal);
    EXPECT_TRUE(AnsweredBy(*dist, "dist[")) << dist->result.algorithm_used;
  }
  cluster.coordinator->Shutdown();
}

TEST(DistTableTest, TpccBatchMatchesLocalAdviseSchema) {
  const Instance tpcc = MakeTpccInstance();
  BatchAdviseRequest batch;
  batch.request.solver = "ilp";
  batch.request.num_sites = 3;
  batch.request.time_limit_seconds = 60.0;
  batch.request.ilp.warm_start_seconds = 0.1;
  batch.request.obs = ObsLevel::kOff;
  auto local = AdviseSchema(tpcc, batch);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  Cluster cluster = StartCluster("tab", /*num_workers=*/2);
  ASSERT_NE(cluster.coordinator, nullptr);
  auto dist = cluster.coordinator->AdviseSchemaDistributed(tpcc, batch);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ASSERT_EQ(dist->tables.size(), local->tables.size());
  EXPECT_EQ(dist->combined.cost, local->combined.cost);
  EXPECT_EQ(dist->combined.single_site_cost,
            local->combined.single_site_cost);
  for (size_t i = 0; i < local->tables.size(); ++i) {
    EXPECT_EQ(dist->tables[i].result.cost, local->tables[i].result.cost)
        << "table " << local->tables[i].table_name;
    EXPECT_EQ(dist->tables[i].result.proven_optimal,
              local->tables[i].result.proven_optimal);
  }
  cluster.coordinator->Shutdown();
}

TEST(DistFailureTest, WorkerCrashMidSessionRequeuesAndStillCertifies) {
  const Instance instance = RandomInstance("rndAt8x15");
  CliRequest cli = SubtreeRequest();
  cli.request.num_sites = 2;
  cli.dist.frontier_units = 8;  // enough units that the crash strands some
  auto local = Advise(instance, cli.request);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  // Worker 0 drops its connection after one unit result — a crash as far
  // as the coordinator can tell. Its remaining units must requeue to the
  // surviving worker and the proof must close regardless.
  WorkerOptions crashy;
  crashy.fail_after_units = 1;
  Cluster cluster = StartCluster("kill", /*num_workers=*/2, crashy);
  ASSERT_NE(cluster.coordinator, nullptr);
  auto dist = cluster.coordinator->AdviseDistributed(instance, cli);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(dist->result.cost, local->result.cost);
  EXPECT_TRUE(dist->result.proven_optimal);
  EXPECT_TRUE(dist->certified);
  EXPECT_TRUE(AnsweredBy(*dist, "dist[")) << dist->result.algorithm_used;
  EXPECT_GT(cluster.coordinator->requeued_total(), 0);
  cluster.coordinator->Shutdown();
}

TEST(DistShutdownTest, StartAndShutdownJoinsEverything) {
  Cluster cluster = StartCluster("shut", /*num_workers=*/2);
  ASSERT_NE(cluster.coordinator, nullptr);
  EXPECT_EQ(cluster.coordinator->usable_workers(), 2);
  cluster.coordinator->Shutdown();
  for (auto& worker : cluster.workers) {
    EXPECT_TRUE(worker->Join().ok());
  }
  // Idempotent: a second Shutdown (and the destructor after it) is a no-op.
  cluster.coordinator->Shutdown();
}

TEST(DistShutdownTest, DispatchWithoutWorkersFailsFast) {
  DistCoordinator::Options options;
  options.socket_path = TestSocket("none");
  options.num_workers = 1;
  options.spawn_workers = false;  // nobody will ever attach
  auto started = DistCoordinator::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  EXPECT_FALSE((*started)->WaitForWorkers(1, 0.2));
  const Instance tpcc = MakeTpccInstance();
  auto dist = (*started)->AdviseDistributed(tpcc, SubtreeRequest());
  EXPECT_FALSE(dist.ok());
  (*started)->Shutdown();
}

/// Spawned-process leg: real fork+exec'd vpart_cli workers, one of which
/// is SIGKILLed mid-solve. Skipped when vpart_cli is not next to the test
/// binary (ctest runs from the build dir, where it always is).
TEST(DistProcessTest, SigkilledWorkerProcessDoesNotLoseTheProof) {
  if (::access("./vpart_cli", X_OK) != 0) {
    GTEST_SKIP() << "vpart_cli not found in the working directory";
  }
  const Instance instance = RandomInstance("rndAt8x15");
  CliRequest cli = SubtreeRequest();
  cli.request.num_sites = 2;
  cli.dist.frontier_units = 8;
  auto local = Advise(instance, cli.request);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  DistCoordinator::Options options;
  options.socket_path = TestSocket("proc");
  options.num_workers = 2;
  options.spawn_workers = true;
  options.worker_binary = "./vpart_cli";
  auto started = DistCoordinator::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto& coordinator = *started;
  const std::vector<pid_t> pids = coordinator->worker_pids();
  ASSERT_EQ(pids.size(), 2u);

  // Kill one worker as soon as the solve is underway; the kill thread
  // races unit dispatch, which is exactly the point — whether units were
  // assigned or not, the result must be identical.
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ::kill(pids[0], SIGKILL);
  });
  auto dist = coordinator->AdviseDistributed(instance, cli);
  killer.join();
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(dist->result.cost, local->result.cost);
  EXPECT_TRUE(dist->result.proven_optimal);
  EXPECT_TRUE(dist->certified);
  EXPECT_TRUE(AnsweredBy(*dist, "dist[")) << dist->result.algorithm_used;
  EXPECT_EQ(coordinator->usable_workers(), 1);
  coordinator->Shutdown();
}

}  // namespace
}  // namespace vpart

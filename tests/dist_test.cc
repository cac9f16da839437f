// End-to-end distributed solving (dist/coordinator.h + dist/worker.h):
// coordinator and workers inside one process (InProcessWorker threads —
// what the TSan CI leg runs), plus a spawned-process leg with a mid-solve
// SIGKILL. The load-bearing contracts:
//
//   * equivalence — a distributed whole-schema batch (any worker count)
//     merges to the same advice as the local AdviseSchema;
//   * fault tolerance — killing a worker mid-session loses no units: the
//     ledger requeues them, every table is still solved and certified, and
//     the combined cost is unchanged;
//   * clean teardown — Shutdown() joins every thread (TSan-checked).

#include <sys/types.h>
#include <csignal>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cost/partitioning.h"
#include "dist/coordinator.h"
#include "dist/transport.h"
#include "dist/wire_messages.h"
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

BatchAdviseRequest TpccBatch() {
  BatchAdviseRequest batch;
  batch.request.solver = "ilp";
  batch.request.num_sites = 3;
  batch.request.time_limit_seconds = 60.0;
  batch.request.ilp.warm_start_seconds = 0.1;
  batch.request.obs = ObsLevel::kOff;
  return batch;
}

/// perfbench's batch schema: a Table-1 schema of 100 tables, advised by
/// seeded SA (fixed restarts, so the advice is reproducible) with every
/// table certified. Its session outlasts a 30 ms kill, and its 100 units
/// keep a crashed worker holding one.
Instance Table1Schema() {
  return MakeRandomInstance(Table1DefaultParams(100, /*seed=*/1));
}

BatchAdviseRequest CertifiedSaBatch() {
  BatchAdviseRequest batch;
  batch.request.solver = "sa";
  batch.request.num_sites = 3;
  batch.request.certify = true;
  batch.request.obs = ObsLevel::kOff;
  return batch;
}

void ExpectSameAdvice(const BatchAdvisorResult& dist,
                      const BatchAdvisorResult& local) {
  ASSERT_EQ(dist.tables.size(), local.tables.size());
  EXPECT_EQ(dist.combined.cost, local.combined.cost);
  EXPECT_EQ(dist.combined.single_site_cost, local.combined.single_site_cost);
  EXPECT_EQ(dist.combined.proven_optimal, local.combined.proven_optimal);
  for (size_t i = 0; i < local.tables.size(); ++i) {
    EXPECT_EQ(dist.tables[i].result.cost, local.tables[i].result.cost)
        << "table " << local.tables[i].table_name;
    EXPECT_EQ(dist.tables[i].result.proven_optimal,
              local.tables[i].result.proven_optimal);
  }
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

// Each session ships its job afresh under a new serial; workers answer the
// second session from the second job.
TEST(DistTableTest, SequentialSessionsReuseTheCluster) {
  const Instance tpcc = MakeTpccInstance();
  const BatchAdviseRequest batch = TpccBatch();
  auto local = AdviseSchema(tpcc, batch);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  Cluster cluster = StartCluster("seq", /*num_workers=*/2);
  ASSERT_NE(cluster.coordinator, nullptr);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto dist = cluster.coordinator->AdviseSchemaDistributed(tpcc, batch);
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
    ExpectSameAdvice(*dist, *local);
  }
  EXPECT_EQ(cluster.coordinator->requeued_total(), 0);
  cluster.coordinator->Shutdown();
}

TEST(DistFailureTest, WorkerCrashMidSessionRequeuesAndStillCertifies) {
  const Instance schema = Table1Schema();
  const BatchAdviseRequest batch = CertifiedSaBatch();
  auto local = AdviseSchema(schema, batch);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  // Worker 0 drops its connection after one unit result — a crash as far
  // as the coordinator can tell. The coordinator hands it its next table
  // on that result, so that table must requeue to the surviving worker,
  // and every table is still solved and certified (a unit that fails
  // certification fails the session).
  WorkerOptions crashy;
  crashy.fail_after_units = 1;
  Cluster cluster = StartCluster("kill", /*num_workers=*/2, crashy);
  ASSERT_NE(cluster.coordinator, nullptr);
  auto dist = cluster.coordinator->AdviseSchemaDistributed(schema, batch);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ExpectSameAdvice(*dist, *local);
  EXPECT_GT(cluster.coordinator->requeued_total(), 0);
  EXPECT_EQ(cluster.coordinator->usable_workers(), 1);
  cluster.coordinator->Shutdown();
}

// A worker whose numbers are wrong: it says hello and answers every unit
// with the table's single-site layout and "cost": 1. The coordinator
// re-prices each layout on its own subinstance and fails the batch instead
// of summing the claimed costs.
TEST(DistFailureTest, MisreportedWorkerCostFailsTheBatch) {
  const Instance tpcc = MakeTpccInstance();
  const BatchAdviseRequest batch = TpccBatch();
  StatusOr<std::vector<TableSubinstance>> subs = SplitInstanceByTable(tpcc);
  ASSERT_TRUE(subs.ok()) << subs.status().ToString();

  DistCoordinator::Options options;
  options.socket_path = TestSocket("lie");
  options.num_workers = 1;
  options.spawn_workers = false;
  auto started = DistCoordinator::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto& coordinator = *started;

  std::thread worker([&] {
    StatusOr<std::unique_ptr<Transport>> transport =
        ConnectUds(options.socket_path);
    if (!transport.ok()) return;
    JsonValue hello = MakeDistMessage(kDistMsgHello);
    hello.Set("pid", static_cast<long>(::getpid()));
    (void)(*transport)->Send(hello);
    while (true) {
      StatusOr<JsonValue> message = (*transport)->Receive();
      if (!message.ok() || DistMessageType(*message) == kDistMsgShutdown) {
        break;
      }
      if (DistMessageType(*message) != kDistMsgUnit) continue;  // the job
      const long table = LongField(*message, "table", -1).value_or(-1);
      if (table < 0 || table >= static_cast<long>(subs->size())) break;
      const Instance& sub = (*subs)[table].instance;
      AdvisorResult answer;
      answer.partitioning = SingleSiteBaseline(sub, batch.request.num_sites);
      answer.cost = 1.0;
      JsonValue reply = MakeDistMessage(kDistMsgUnitResult);
      reply.Set("advisor", EncodeAdvisorResult(sub, answer));
      reply.Set("id", LongField(*message, "id", -1).value_or(-1));
      reply.Set("session", LongField(*message, "session", 0).value_or(0));
      if (!(*transport)->Send(reply).ok()) break;
    }
    (*transport)->Close();
  });
  const bool attached = coordinator->WaitForWorkers(1, 30.0);
  StatusOr<BatchAdvisorResult> dist =
      FailedPreconditionError("the scripted worker never said hello");
  if (attached) dist = coordinator->AdviseSchemaDistributed(tpcc, batch);
  coordinator->Shutdown();
  worker.join();

  ASSERT_FALSE(dist.ok()) << "combined cost " << dist->combined.cost;
  EXPECT_EQ(dist.status().code(), StatusCode::kInternal)
      << dist.status().ToString();
  const std::string& first_table =
      tpcc.schema().table((*subs)[0].table_id).name;
  EXPECT_NE(dist.status().message().find("table " + first_table),
            std::string::npos)
      << dist.status().ToString();
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
  auto dist = (*started)->AdviseSchemaDistributed(tpcc, TpccBatch());
  ASSERT_FALSE(dist.ok());
  EXPECT_EQ(dist.status().code(), StatusCode::kFailedPrecondition);
  (*started)->Shutdown();
}

/// Spawned-process leg: real fork+exec'd vpart_cli workers, one of which
/// is SIGKILLed mid-solve. Skipped when vpart_cli is not next to the test
/// binary (ctest runs from the build dir, where it always is).
TEST(DistProcessTest, SigkilledWorkerProcessDoesNotLoseTheProof) {
  if (::access("./vpart_cli", X_OK) != 0) {
    GTEST_SKIP() << "vpart_cli not found in the working directory";
  }
  const Instance schema = Table1Schema();
  const BatchAdviseRequest batch = CertifiedSaBatch();
  auto local = AdviseSchema(schema, batch);
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
  auto dist = coordinator->AdviseSchemaDistributed(schema, batch);
  killer.join();
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ExpectSameAdvice(*dist, *local);
  EXPECT_EQ(coordinator->usable_workers(), 1);
  coordinator->Shutdown();
}

}  // namespace
}  // namespace vpart

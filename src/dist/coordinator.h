#ifndef VPART_DIST_COORDINATOR_H_
#define VPART_DIST_COORDINATOR_H_

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/ledger.h"
#include "dist/transport.h"
#include "engine/batch_advisor.h"
#include "util/deadline.h"
#include "util/status.h"

namespace vpart {

/// Multi-process solve coordinator (DESIGN.md "Distributed layer"). Owns a
/// Unix-socket listener, a fleet of worker processes (spawned, or attached
/// externally — `vpart_cli --worker <socket>` / InProcessWorker), and a
/// WorkLedger per solve session. It shards a whole-schema batch by table
/// (`AdviseSchemaDistributed`): the instance is split per table
/// (SplitInstanceByTable), tables are farmed out one unit per worker at a
/// time, and the results merge through the same MergeTableAdvice a local
/// batch uses. One exact solve is not sharded here; `ilp.bnb_threads`
/// parallelizes it inside one process.
///
/// Failure model: a worker that disconnects or misses heartbeats for
/// `heartbeat_timeout_seconds` has its assigned units returned to the
/// ledger and re-dispatched; results from a worker presumed dead are
/// discarded (units complete exactly once). If every worker is lost with
/// units outstanding, the solve fails loudly.
class DistCoordinator {
 public:
  struct Options {
    /// Unix socket path; "" derives one from the pid under /tmp.
    std::string socket_path;
    /// Workers to spawn (spawn_workers) and/or wait for at Start().
    int num_workers = 2;
    /// Fork+exec `worker_binary --worker <socket>` children. When false the
    /// caller attaches workers itself (other terminals, InProcessWorker).
    bool spawn_workers = true;
    /// Binary for spawned workers; "" uses /proc/self/exe (correct when the
    /// coordinator runs inside vpart_cli itself).
    std::string worker_binary;
    /// Silence window after which a worker is presumed dead and its units
    /// requeue. Heartbeats tick every ~1s.
    double heartbeat_timeout_seconds = 10.0;
    /// Start() fails if num_workers have not said hello within this.
    double startup_timeout_seconds = 30.0;
  };

  /// Binds the socket and spawns/awaits workers.
  static StatusOr<std::unique_ptr<DistCoordinator>> Start(
      const Options& options);

  ~DistCoordinator();

  /// Idempotent teardown: shutdown messages, reader joins, child reaping.
  void Shutdown();

  const std::string& socket_path() const { return socket_path_; }

  /// Pids of spawned workers (empty when spawn_workers was false).
  std::vector<pid_t> worker_pids() const;

  /// Connected workers currently usable for dispatch.
  int usable_workers() const;

  /// Blocks until `n` workers said hello (or the timeout); true on success.
  bool WaitForWorkers(int n, double timeout_seconds);

  /// Units restored from dead/hung workers over this coordinator's life.
  long requeued_total() const;

  /// Whole-schema batch advice with per-table solves farmed across
  /// workers. Each worker's layout is re-priced here (PriceAdvice); a
  /// reported cost more than 1e-9 relative off fails the batch with
  /// InternalError naming the table. Merges byte-identically to a local
  /// AdviseSchema over the same per-table layouts.
  StatusOr<BatchAdvisorResult> AdviseSchemaDistributed(
      const Instance& instance, const BatchAdviseRequest& batch);

 private:
  struct WorkerState {
    int id = -1;
    std::unique_ptr<Transport> transport;
    std::thread reader;
    bool alive = true;
    bool ready = false;  // hello received
    long current_unit = -1;
    long job_serial = -1;  // session whose job this worker holds
    std::chrono::steady_clock::time_point last_seen;
  };

  /// One solve session: its ledger, unit payloads and collected results.
  struct Session {
    long serial = 0;
    JsonValue job;
    std::map<long, JsonValue> payloads;
    WorkLedger ledger;
    std::map<long, JsonValue> results;
    Status error;  // first fatal unit error
    bool active = true;
  };

  struct SessionOutcome {
    std::map<long, JsonValue> results;
    Status error;
    bool completed = false;  // every unit finished
  };

  DistCoordinator() = default;

  Status StartImpl(const Options& options);
  Status SpawnWorker();
  void AcceptLoop();
  void ReaderLoop(WorkerState* worker);
  void MonitorLoop();

  /// Pairs idle workers with pending units (shipping the session job first
  /// when a worker has not seen it). Callers hold mu_.
  void PumpLocked();
  void HandleResultLocked(WorkerState* worker, const std::string& type,
                          const JsonValue& message);
  void HandleWorkerDeathLocked(WorkerState* worker);
  int UsableWorkersLocked() const;

  /// Dispatches a prepared session and blocks until it completes, errors,
  /// every worker is lost, or `token` fires (partial results then).
  SessionOutcome RunSession(JsonValue job, std::map<long, JsonValue> payloads,
                            const CancellationToken& token);

  std::string socket_path_;
  Options options_;
  std::unique_ptr<TransportListener> listener_;
  std::thread accept_thread_;
  std::thread monitor_thread_;

  mutable std::mutex mu_;
  std::condition_variable workers_cv_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::unique_ptr<Session> session_;
  long session_serial_ = 0;
  long requeued_total_ = 0;
  bool shutting_down_ = false;
  std::condition_variable monitor_cv_;

  std::vector<pid_t> spawned_pids_;

  /// Serializes AdviseSchemaDistributed calls: one session at a time.
  std::mutex advise_mu_;
};

}  // namespace vpart

#endif  // VPART_DIST_COORDINATOR_H_

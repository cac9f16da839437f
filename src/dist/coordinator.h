#ifndef VPART_DIST_COORDINATOR_H_
#define VPART_DIST_COORDINATOR_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/advise.h"
#include "api/request_json.h"
#include "api/solver_registry.h"
#include "dist/ledger.h"
#include "dist/transport.h"
#include "engine/batch_advisor.h"
#include "util/status.h"

namespace vpart {

/// Registry name the coordinator claims for its subtree-sharding solver
/// while it is running; `AdviseDistributed` routes through it so subtree
/// solves ride the full Advise() orchestration (grouping, validation,
/// pricing, certification) unchanged.
inline constexpr const char* kSolverDist = "dist";

/// Multi-process solve coordinator (DESIGN.md "Distributed layer"). Owns a
/// Unix-socket listener, a fleet of worker processes (spawned, or attached
/// externally — `vpart_cli --worker <socket>` / InProcessWorker), and a
/// WorkLedger per solve session. Two sharding modes:
///
///   - tables   (`AdviseSchemaDistributed`): the whole-schema batch is
///     split per table (SplitInstanceByTable) and tables are farmed out;
///     results merge through the same MergeTableAdvice a local batch uses.
///   - subtrees (`AdviseDistributed`): a serial B&B expands the root to a
///     frontier (mip/frontier.h) and ships each open node; workers search
///     their subtrees to exhaustion, incumbents broadcast both ways so
///     every worker prunes against the global best.
///
/// Failure model: a worker that disconnects or misses heartbeats for
/// `heartbeat_timeout_seconds` has its assigned units returned to the
/// ledger and re-dispatched; results from a worker presumed dead are
/// discarded (units complete exactly once). Optimality is certified only
/// when the frontier expansion was clean AND every unit reported an
/// exhausted search — a requeued-and-finished unit still satisfies this,
/// so a mid-solve worker kill cannot silently weaken the proof. If every
/// worker is lost with units outstanding, the solve fails loudly.
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

  /// Binds the socket, spawns/awaits workers, and registers the "dist"
  /// solver. The registration is exclusive: a second concurrent
  /// coordinator in one process fails here.
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

  /// Subtree mode: one exact solve, sharded across workers at the B&B
  /// frontier. Same contract as Advise(instance, cli.request) — including
  /// certification via request.certify — with cli.dist.frontier_units
  /// steering the shard count (0 = 4x workers).
  StatusOr<AdviseResponse> AdviseDistributed(const Instance& instance,
                                             const CliRequest& cli);

  /// Table mode: whole-schema batch advice with per-table solves farmed
  /// across workers. Merges byte-identically to a local AdviseSchema over
  /// the same per-table answers.
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

  /// One solve session: its ledger, unit payloads, collected results, and
  /// the globally best incumbent seen so far (subtree mode).
  struct Session {
    long serial = 0;
    bool subtree = false;
    JsonValue job;
    std::map<long, JsonValue> payloads;
    WorkLedger ledger;
    std::map<long, JsonValue> results;
    Status error;  // first fatal unit error
    bool active = true;
    bool have_best = false;
    double best_objective = 0.0;
    std::vector<double> best_values;
  };

  struct SessionOutcome {
    std::map<long, JsonValue> results;
    Status error;
    bool completed = false;  // every unit finished
    bool have_best = false;
    double best_objective = 0.0;
    std::vector<double> best_values;
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
  /// Rebroadcasts the session's best incumbent objective to every worker
  /// holding the session's job, except `from` (the one that reported it).
  void BroadcastIncumbentLocked(const WorkerState* from);
  void HandleIncumbentLocked(WorkerState* worker, const JsonValue& message);
  void HandleResultLocked(WorkerState* worker, const std::string& type,
                          const JsonValue& message);
  void HandleWorkerDeathLocked(WorkerState* worker);
  int UsableWorkersLocked() const;

  /// Dispatches a prepared session and blocks until it completes, errors,
  /// every worker is lost, or `token` fires (partial results then).
  SessionOutcome RunSession(bool subtree, JsonValue job,
                            std::map<long, JsonValue> payloads,
                            bool have_best, double best_objective,
                            std::vector<double> best_values,
                            const CancellationToken& token);

  /// Body of the registered "dist" solver (subtree mode).
  StatusOr<SolverRun> SolveSubtrees(const CostCoefficients& cost_model,
                                    const AdviseRequest& request,
                                    const SolveContext& ctx);
  friend class DistSolverAdapter;

  std::string socket_path_;
  Options options_;
  std::unique_ptr<TransportListener> listener_;
  std::thread accept_thread_;
  std::thread monitor_thread_;
  bool solver_registered_ = false;

  mutable std::mutex mu_;
  std::condition_variable workers_cv_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::unique_ptr<Session> session_;
  long session_serial_ = 0;
  long requeued_total_ = 0;
  bool shutting_down_ = false;
  std::condition_variable monitor_cv_;

  std::vector<pid_t> spawned_pids_;

  /// Serializes the public advise entry points (one session at a time) and
  /// carries the per-call frontier target into SolveSubtrees.
  std::mutex advise_mu_;
  int frontier_target_ = 0;
};

}  // namespace vpart

#endif  // VPART_DIST_COORDINATOR_H_

#include "dist/coordinator.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "api/request_json.h"
#include "cost/cost_model_registry.h"
#include "dist/wire_messages.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "workload/instance_io.h"

namespace vpart {
namespace {

std::string SelfExePath() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return "";
  buffer[n] = '\0';
  return std::string(buffer);
}

Counter& RequeuesTotal() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "vpart_dist_requeues_total",
      "Work units restored from dead or silent workers");
  return counter;
}

Counter& SessionsTotal() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "vpart_dist_sessions_total", "Distributed solve sessions run");
  return counter;
}

/// Re-prices a worker's answer for `table` on the coordinator's own
/// subinstance with the request's cost model, as RunAdvice priced it. The
/// layout and `proven_optimal` are the worker's claims; its numbers are
/// replaced, and a reported cost the layout does not price at fails.
Status RepriceTableAnswer(const Instance& instance,
                          const AdviseRequest& request,
                          const std::string& table, AdvisorResult& answer) {
  const Status valid = ValidatePartitioning(instance, answer.partitioning,
                                            !request.allow_replication);
  if (!valid.ok()) {
    return InternalError(StrFormat("dist batch: table %s: %s", table.c_str(),
                                   valid.message().c_str()));
  }
  StatusOr<std::shared_ptr<const CostCoefficients>> model =
      CostModelRegistry::Global().Build(BorrowInstance(instance), request.cost,
                                        request.cost_model);
  VPART_RETURN_IF_ERROR(model.status());
  const double reported = answer.cost;
  PriceAdvice(instance, request, **model, answer);
  if (!(std::abs(reported - answer.cost) <= 1e-9 * std::abs(answer.cost))) {
    return InternalError(StrFormat(
        "dist batch: table %s: worker reported cost %.17g, its layout "
        "prices at %.17g",
        table.c_str(), reported, answer.cost));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<DistCoordinator>> DistCoordinator::Start(
    const Options& options) {
  std::unique_ptr<DistCoordinator> coordinator(new DistCoordinator());
  Status started = coordinator->StartImpl(options);
  if (!started.ok()) {
    coordinator->Shutdown();
    return started;
  }
  return coordinator;
}

Status DistCoordinator::StartImpl(const Options& options) {
  options_ = options;
  if (options_.num_workers < 1) {
    return InvalidArgumentError("dist coordinator: num_workers must be >= 1");
  }
  socket_path_ =
      options_.socket_path.empty()
          ? StrFormat("/tmp/vpart-dist-%d.sock", static_cast<int>(::getpid()))
          : options_.socket_path;
  StatusOr<std::unique_ptr<TransportListener>> listener =
      ListenUds(socket_path_);
  VPART_RETURN_IF_ERROR(listener.status());
  listener_ = std::move(*listener);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  monitor_thread_ = std::thread([this] { MonitorLoop(); });

  if (options_.spawn_workers) {
    for (int i = 0; i < options_.num_workers; ++i) {
      VPART_RETURN_IF_ERROR(SpawnWorker());
    }
  }
  // Externally attached workers (spawn_workers false) can only connect
  // after Start() returns, so only spawned fleets are awaited here; the
  // caller gates on WaitForWorkers() once its workers are up.
  if (options_.spawn_workers &&
      !WaitForWorkers(options_.num_workers,
                      options_.startup_timeout_seconds)) {
    return DeadlineExceededError(StrFormat(
        "dist coordinator: %d workers did not connect to %s within %.0fs",
        options_.num_workers, socket_path_.c_str(),
        options_.startup_timeout_seconds));
  }
  return Status::Ok();
}

DistCoordinator::~DistCoordinator() { Shutdown(); }

Status DistCoordinator::SpawnWorker() {
  const std::string binary = options_.worker_binary.empty()
                                 ? SelfExePath()
                                 : options_.worker_binary;
  if (binary.empty()) {
    return InternalError("dist coordinator: cannot resolve worker binary");
  }
  const pid_t pid = ::fork();
  if (pid < 0) return InternalError("dist coordinator: fork failed");
  if (pid == 0) {
    ::execl(binary.c_str(), binary.c_str(), "--worker", socket_path_.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }
  std::lock_guard<std::mutex> lock(mu_);
  spawned_pids_.push_back(pid);
  return Status::Ok();
}

void DistCoordinator::AcceptLoop() {
  while (true) {
    StatusOr<std::unique_ptr<Transport>> accepted = listener_->Accept();
    if (!accepted.ok()) return;  // listener closed
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      (*accepted)->Close();
      return;
    }
    auto worker = std::make_unique<WorkerState>();
    worker->id = static_cast<int>(workers_.size());
    worker->transport = std::move(*accepted);
    worker->last_seen = std::chrono::steady_clock::now();
    WorkerState* raw = worker.get();
    workers_.push_back(std::move(worker));
    raw->reader = std::thread([this, raw] { ReaderLoop(raw); });
  }
}

void DistCoordinator::ReaderLoop(WorkerState* worker) {
  while (true) {
    StatusOr<JsonValue> message = worker->transport->Receive();
    if (!message.ok()) break;
    const std::string type = DistMessageType(*message);
    std::lock_guard<std::mutex> lock(mu_);
    worker->last_seen = std::chrono::steady_clock::now();
    if (type == kDistMsgHello) {
      worker->ready = true;
      workers_cv_.notify_all();
      PumpLocked();
    } else if (type == kDistMsgHeartbeat) {
      // The last_seen refresh above is the whole point.
    } else if (type == kDistMsgUnitResult || type == kDistMsgUnitError) {
      HandleResultLocked(worker, type, *message);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  HandleWorkerDeathLocked(worker);
}

void DistCoordinator::MonitorLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  const double timeout = std::max(0.5, options_.heartbeat_timeout_seconds);
  while (!monitor_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout / 4),
      [this] { return shutting_down_; })) {
    const auto now = std::chrono::steady_clock::now();
    for (auto& worker : workers_) {
      if (!worker->alive) continue;
      const double silent =
          std::chrono::duration<double>(now - worker->last_seen).count();
      // Abort wakes the reader, whose exit path runs the one shared death
      // protocol (requeue + pump) for hung and dead workers alike.
      if (silent > timeout) worker->transport->Abort();
    }
  }
}

int DistCoordinator::UsableWorkersLocked() const {
  int usable = 0;
  for (const auto& worker : workers_) {
    if (worker->alive && worker->ready) ++usable;
  }
  return usable;
}

int DistCoordinator::usable_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return UsableWorkersLocked();
}

bool DistCoordinator::WaitForWorkers(int n, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  return workers_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [this, n] { return shutting_down_ || UsableWorkersLocked() >= n; }) &&
         UsableWorkersLocked() >= n;
}

std::vector<pid_t> DistCoordinator::worker_pids() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spawned_pids_;
}

long DistCoordinator::requeued_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return requeued_total_;
}

void DistCoordinator::PumpLocked() {
  if (session_ == nullptr || !session_->active) return;
  for (auto& worker_ptr : workers_) {
    WorkerState* worker = worker_ptr.get();
    if (!worker->alive || !worker->ready) continue;
    if (worker->job_serial != session_->serial) {
      if (!worker->transport->Send(session_->job).ok()) continue;
      worker->job_serial = session_->serial;
      worker->current_unit = -1;
    }
    if (worker->current_unit >= 0) continue;
    std::optional<long> id = session_->ledger.Acquire(worker->id);
    if (!id.has_value()) continue;
    worker->current_unit = *id;
    (void)worker->transport->Send(session_->payloads[*id]);
  }
}

void DistCoordinator::HandleResultLocked(WorkerState* worker,
                                         const std::string& type,
                                         const JsonValue& message) {
  // A malformed id or session matches no unit or session.
  const long id = LongField(message, "id", -1).value_or(-1);
  if (worker->current_unit == id) worker->current_unit = -1;
  if (session_ == nullptr || !session_->active ||
      LongField(message, "session", -1).value_or(-1) != session_->serial) {
    PumpLocked();  // stale result from an earlier session; worker is idle
    return;
  }
  if (!session_->ledger.Complete(worker->id, id)) {
    // The unit was requeued to someone else while this worker was presumed
    // dead; both answers are equivalent, first completion wins.
    PumpLocked();
    return;
  }
  if (type == kDistMsgUnitError) {
    const JsonValue* error = message.Find("error");
    session_->error = InternalError(StrFormat(
        "dist unit %ld failed: %s", id,
        (error != nullptr && error->is_string()) ? error->as_string().c_str()
                                                 : "unknown error"));
    session_->ledger.Cancel();
    return;
  }
  session_->results[id] = message;
  PumpLocked();
}

void DistCoordinator::HandleWorkerDeathLocked(WorkerState* worker) {
  if (!worker->alive) return;
  worker->alive = false;
  worker->ready = false;
  worker->current_unit = -1;
  workers_cv_.notify_all();
  if (session_ == nullptr || !session_->active) return;
  const std::vector<long> restored = session_->ledger.Requeue(worker->id);
  requeued_total_ += static_cast<long>(restored.size());
  RequeuesTotal().Add(static_cast<long>(restored.size()));
  if (UsableWorkersLocked() == 0 && !session_->ledger.AllDone()) {
    session_->error = InternalError(
        "dist coordinator: every worker lost with units outstanding");
    session_->ledger.Cancel();
    return;
  }
  PumpLocked();
}

DistCoordinator::SessionOutcome DistCoordinator::RunSession(
    JsonValue job, std::map<long, JsonValue> payloads,
    const CancellationToken& token) {
  Session* session = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SessionsTotal().Increment();
    session_ = std::make_unique<Session>();
    session = session_.get();
    session->serial = ++session_serial_;
    job.Set("session", session->serial);
    session->job = std::move(job);
    for (auto& entry : payloads) {
      entry.second.Set("session", session->serial);
      session->ledger.Add(entry.first);
    }
    session->payloads = std::move(payloads);
    PumpLocked();
  }

  while (!session->ledger.WaitFor(0.2)) {
    if (token.cancelled()) break;  // deadline: take what finished
    std::lock_guard<std::mutex> lock(mu_);
    if (!session->error.ok() || shutting_down_) break;
  }

  SessionOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(mu_);
    session->active = false;
    outcome.results = std::move(session->results);
    outcome.error = session->error;
    outcome.completed = session->ledger.AllDone();
    session_.reset();
  }
  return outcome;
}

StatusOr<BatchAdvisorResult> DistCoordinator::AdviseSchemaDistributed(
    const Instance& instance, const BatchAdviseRequest& batch) {
  std::lock_guard<std::mutex> serialize(advise_mu_);
  if (usable_workers() == 0) {
    return FailedPreconditionError(
        "dist coordinator: no workers attached (WaitForWorkers first)");
  }
  const AdviseRequest& request = batch.request;
  if (request.num_sites < 1) {
    return InvalidArgumentError("num_sites must be >= 1");
  }
  Stopwatch watch;
  ScopedObsLevel scoped_obs(request.obs);
  Span span("dist_batch", "dist");
  span.AddArg("instance", instance.name());
  StatusOr<std::vector<TableSubinstance>> split =
      SplitInstanceByTable(instance);
  VPART_RETURN_IF_ERROR(split.status());
  std::vector<TableSubinstance>& subs = *split;
  const int n = static_cast<int>(subs.size());
  span.AddArg("tables", static_cast<long>(n));

  CliRequest job_cli;
  job_cli.instance_text = WriteInstanceText(instance);
  job_cli.request = request;
  job_cli.batch = true;
  JsonValue job = MakeDistMessage(kDistMsgJob);
  job.Set("request", CliRequestToJson(job_cli));

  std::map<long, JsonValue> payloads;
  for (int i = 0; i < n; ++i) {
    JsonValue payload = MakeDistMessage(kDistMsgUnit);
    payload.Set("id", static_cast<long>(i));
    payload.Set("table", i);
    payloads[i] = std::move(payload);
  }

  // Per-table budgets are enforced worker-side (every Advise carries
  // request.time_limit_seconds); the session deadline is only the safety
  // net for a fleet that can no longer make progress.
  const CancellationToken token = CancellationToken::WithDeadline(
      request.time_limit_seconds > 0
          ? request.time_limit_seconds * std::max(1, n) + 30.0
          : 0.0);
  SessionOutcome outcome =
      RunSession(std::move(job), std::move(payloads), token);
  VPART_RETURN_IF_ERROR(outcome.error);
  if (!outcome.completed) {
    return DeadlineExceededError(
        "distributed batch advise did not finish within its budget");
  }

  std::vector<AdvisorResult> answers;
  answers.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto found = outcome.results.find(i);
    if (found == outcome.results.end()) {
      return InternalError(
          StrFormat("dist batch: table unit %d has no result", i));
    }
    const JsonValue* advisor = found->second.Find("advisor");
    StatusOr<AdvisorResult> decoded = DecodeAdvisorResult(
        subs[i].instance, advisor != nullptr ? *advisor : JsonValue());
    VPART_RETURN_IF_ERROR(decoded.status());
    VPART_RETURN_IF_ERROR(RepriceTableAnswer(
        subs[i].instance, request,
        instance.schema().table(subs[i].table_id).name, *decoded));
    answers.push_back(std::move(*decoded));
  }
  StatusOr<BatchAdvisorResult> merged =
      MergeTableAdvice(instance, subs, std::move(answers), request.num_sites);
  VPART_RETURN_IF_ERROR(merged.status());
  merged->threads_used = usable_workers();
  merged->combined.seconds = watch.ElapsedSeconds();
  merged->seconds = merged->combined.seconds;
  return merged;
}

void DistCoordinator::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) return;
    shutting_down_ = true;
    if (session_ != nullptr && session_->active) {
      session_->error =
          InternalError("dist coordinator: shut down mid-session");
      session_->ledger.Cancel();
      session_->active = false;
    }
    for (auto& worker : workers_) {
      if (worker->alive) {
        (void)worker->transport->Send(MakeDistMessage(kDistMsgShutdown));
      }
    }
  }
  monitor_cv_.notify_all();
  workers_cv_.notify_all();
  if (monitor_thread_.joinable()) monitor_thread_.join();
  if (listener_ != nullptr) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& worker : workers_) worker->transport->Abort();
  }
  // No lock below: accept and reader threads are gone or exiting, and no
  // new ones can start.
  for (auto& worker : workers_) {
    if (worker->reader.joinable()) worker->reader.join();
  }
  for (auto& worker : workers_) worker->transport->Close();
  for (pid_t pid : spawned_pids_) {
    int status = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (true) {
      const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
      if (reaped != 0) break;  // reaped, or not our child anymore
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      ::usleep(20 * 1000);
    }
  }
  spawned_pids_.clear();
}

}  // namespace vpart

#include "serve/server.h"

#include <cerrno>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "api/advise.h"
#include "api/request_json.h"
#include "check/certifier.h"
#include "engine/batch_advisor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/wire.h"
#include "util/stopwatch.h"

namespace vpart {
namespace {

/// Longest one reply write may wait for the peer to make room. A client
/// that leaves its receive buffer full this long is dropped, so it cannot
/// hold a worker, its connection's write lock, or Shutdown() hostage.
constexpr timeval kReplySendDeadline = {0, 500 * 1000};

Counter& RequestsTotal() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "vpart_serve_requests_total", "Requests admitted by the advisor daemon");
  return counter;
}

Counter& ShedTotal() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "vpart_serve_shed_total", "Requests shed by admission control");
  return counter;
}

Counter& CacheOutcome(CacheHitKind kind) {
  static Counter& exact = MetricsRegistry::Global().GetCounter(
      "vpart_serve_cache_exact_hits_total",
      "Requests answered from the solution cache (certified exact hit)");
  static Counter& shape = MetricsRegistry::Global().GetCounter(
      "vpart_serve_cache_shape_hits_total",
      "Solves warm-started from a shape-level cache hit");
  static Counter& miss = MetricsRegistry::Global().GetCounter(
      "vpart_serve_cache_misses_total", "Cold solves (cache miss)");
  switch (kind) {
    case CacheHitKind::kExact:
      return exact;
    case CacheHitKind::kShape:
      return shape;
    default:
      return miss;
  }
}

Histogram& RequestSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "vpart_serve_request_seconds", DefaultLatencyBounds(),
      "End-to-end daemon request latency (assignment to reply)");
  return histogram;
}

Gauge& ConnectionsGauge() {
  static Gauge& gauge = MetricsRegistry::Global().GetGauge(
      "vpart_serve_connections", "Open daemon connections");
  return gauge;
}

JsonValue ServeMeta(const std::string& id, const std::string& cache) {
  JsonValue meta = JsonValue::MakeObject();
  meta.Set("id", id);
  meta.Set("cache", cache);
  return meta;
}

}  // namespace

AdviseServer::AdviseServer(AdviseServerOptions options)
    : options_(std::move(options)),
      queue_(options_.max_queue_depth),
      cache_(options_.cache_capacity) {}

AdviseServer::~AdviseServer() { Shutdown(); }

Status AdviseServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return FailedPreconditionError("server already started");
  }
  StatusOr<int> listen_fd = ListenUnixSocket(options_.socket_path);
  VPART_RETURN_IF_ERROR(listen_fd.status());
  listen_fd_ = *listen_fd;
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const int workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void AdviseServer::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  bool was_started = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    was_started = started_;
    shutting_down_ = true;
  }
  shutdown_cv_.notify_all();
  if (!was_started || shutdown_complete_) return;

  // 1. Stop accepting (shutdown() wakes a blocked accept; close alone may
  //    not on Linux).
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Drain workers. Close() cancels in-flight solve tokens, so running
  //    solves return their best answer promptly; connections stay open so
  //    those final replies are still delivered.
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // 3. Tear down connections: mark closed + wake readers, then join them
  //    outside mu_ (readers take mu_ for request ids).
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.reserve(connections_.size());
    for (auto& [id, conn] : connections_) connections.push_back(conn);
    connections_.clear();
  }
  for (const std::shared_ptr<Connection>& conn : connections) {
    CloseConnection(*conn);
  }
  for (const std::shared_ptr<Connection>& conn : connections) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }

  ::unlink(options_.socket_path.c_str());
  shutdown_complete_ = true;
}

void AdviseServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [&] { return shutting_down_ || !started_; });
}

bool AdviseServer::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_ && !shutting_down_;
}

void AdviseServer::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      ::close(fd);
      return;
    }
    ReapFinishedReadersLocked();
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &kReplySendDeadline,
                       sizeof(kReplySendDeadline));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_connection_id_++;
    connections_.emplace(conn->id, conn);
    ConnectionsGauge().Add(1);
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void AdviseServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  while (true) {
    StatusOr<std::string> frame = ReadFrame(conn->fd);
    if (!frame.ok()) {
      if (!IsCleanClose(frame.status())) {
        // A malformed frame desynchronizes the stream: answer, then drop
        // the connection (there is no way to find the next frame start).
        ReplyOn(*conn, MakeServeError(kServeErrProtocol,
                                      frame.status().message()));
      }
      break;
    }
    StatusOr<CliRequest> parsed = ParseCliRequest(*frame);
    if (!parsed.ok()) {
      ReplyOn(*conn, MakeServeError(kServeErrInvalidRequest,
                                    parsed.status().message()));
      continue;  // a bad request does not poison the connection
    }
    const std::string wire_id = parsed->serve.id;
    const double deadline_seconds = parsed->serve.deadline_seconds > 0
                                        ? parsed->serve.deadline_seconds
                                        : options_.default_deadline_seconds;
    QueuedRequest queued;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queued.id = next_request_id_++;
    }
    queued.connection_id = conn->id;
    queued.cli = std::move(*parsed);
    queued.token = CancellationToken::WithDeadline(deadline_seconds);
    const Status admitted = queue_.Submit(std::move(queued));
    if (!admitted.ok()) {
      const bool down = queue_.closed();
      if (!down) ShedTotal().Increment();
      ReplyOn(*conn,
              MakeServeError(down ? kServeErrShuttingDown : kServeErrOverloaded,
                             admitted.message(), wire_id));
    }
  }
  queue_.DropConnection(conn->id);
  CloseConnection(*conn);
  ConnectionsGauge().Add(-1);
  conn->done.store(true, std::memory_order_release);
}

void AdviseServer::WorkerLoop() {
  while (true) {
    std::optional<QueuedRequest> assigned = queue_.Assign();
    if (!assigned.has_value()) return;
    ServeOne(*std::move(assigned));
  }
}

void AdviseServer::ServeOne(QueuedRequest request) {
  RequestsTotal().Increment();
  Stopwatch watch;
  const std::string wire_id = request.cli.serve.id.empty()
                                  ? "srv-" + std::to_string(request.id)
                                  : request.cli.serve.id;
  Span span("serve_request", "serve");
  span.AddArg("id", wire_id);

  // Cancelled while queued: either the admission deadline expired or the
  // connection dropped (then the reply below goes nowhere, harmlessly).
  if (request.token.cancelled()) {
    queue_.Finish(request.id);
    const bool expired =
        request.token.HasDeadline() && request.token.deadline().Expired();
    Reply(request.connection_id,
          MakeServeError(expired ? kServeErrDeadline : kServeErrCancelled,
                         "request cancelled before the solve started",
                         wire_id));
    RequestSeconds().Observe(watch.ElapsedSeconds());
    return;
  }

  // Effective solve budget: the request's own time limit capped by what is
  // left of the end-to-end admission deadline (queue wait already spent).
  double budget = request.cli.request.time_limit_seconds;
  if (request.token.HasDeadline()) {
    budget = request.token.deadline().RemainingUnder(budget);
    if (budget <= 0) {
      queue_.Finish(request.id);
      Reply(request.connection_id,
            MakeServeError(kServeErrDeadline,
                           "admission deadline exhausted in the queue",
                           wire_id));
      RequestSeconds().Observe(watch.ElapsedSeconds());
      return;
    }
  }
  request.cli.request.time_limit_seconds = budget;
  CancellationToken solve_token = CancellationToken::WithDeadline(budget);
  if (!queue_.AttachSolveToken(request.id, solve_token)) {
    // The connection dropped between Assign and now: nobody to answer.
    queue_.Finish(request.id);
    return;
  }

  std::string cache_kind = "bypass";
  JsonValue reply = HandleRequest(request, solve_token, wire_id, &cache_kind);
  queue_.Finish(request.id);
  Reply(request.connection_id, reply);
  span.AddArg("cache", cache_kind);
  RequestSeconds().Observe(watch.ElapsedSeconds());
}

JsonValue AdviseServer::HandleRequest(QueuedRequest& request,
                                      const CancellationToken& solve_token,
                                      const std::string& wire_id,
                                      std::string* cache_kind) {
  CliRequest& cli = request.cli;
  StatusOr<Instance> instance = LoadCliInstance(cli);
  if (!instance.ok()) {
    return MakeServeError(ServeErrorCodeFor(instance.status()),
                          instance.status().message(), wire_id);
  }

  if (cli.batch) {
    // Whole-schema mode bypasses the cache (its unit is one instance, not
    // a per-table decomposition). The per-table budget bounds the run.
    BatchAdviseRequest batch;
    batch.request = cli.request;
    batch.request.num_threads = 1;  // concurrency goes across tables
    batch.table_threads = cli.request.num_threads;
    StatusOr<BatchAdvisorResult> advised = AdviseSchema(*instance, batch);
    if (!advised.ok()) {
      return MakeServeError(ServeErrorCodeFor(advised.status()),
                            advised.status().message(), wire_id);
    }
    JsonValue out =
        BatchAdvisorResultToJson(*instance, *advised, cli.emit_partitioning);
    out.Set("serve", ServeMeta(wire_id, "bypass"));
    return out;
  }

  InstanceFingerprint fp = FingerprintInstance(*instance);
  CacheLookupResult hit = cache_.Lookup(fp, cli.request);
  *cache_kind = CacheHitKindName(hit.kind);

  if (hit.kind == CacheHitKind::kExact) {
    // Same problem up to renaming, same answer knobs, covering budget:
    // remap the cached answer onto this presentation and RE-CERTIFY it
    // before serving. Any failure falls through to a (seeded) solve.
    StatusOr<Partitioning> remapped = RemapPartitioning(
        hit.entry->fingerprint, hit.entry->response.result.partitioning, fp);
    if (remapped.ok()) {
      AdviseResponse cached = hit.entry->response;
      cached.result.partitioning = *std::move(remapped);
      if (CertifyResponse(*instance, cli.request, cached).ok()) {
        cached.certified = true;
        cached.warnings.push_back(
            "served from the solution cache (exact canonical-fingerprint "
            "hit, re-certified)");
        CacheOutcome(CacheHitKind::kExact).Increment();
        JsonValue out = AdviseResponseToJson(*instance, cached,
                                             cli.emit_partitioning, {});
        out.Set("serve", ServeMeta(wire_id, "exact"));
        return out;
      }
    }
    hit.kind = CacheHitKind::kShape;
    *cache_kind = "exact_rejected";
  }

  AdviseRequest solve_request = cli.request;
  if (hit.kind == CacheHitKind::kShape && hit.entry != nullptr) {
    // Same model shape: the cached incumbent and terminal root basis seed
    // the warm-start ladder. Both are validated downstream, so a stale
    // seed costs time, never correctness.
    StatusOr<Partitioning> seed = RemapPartitioningByShape(
        hit.entry->fingerprint, hit.entry->response.result.partitioning, fp);
    if (seed.ok()) {
      solve_request.warm.incumbent =
          std::make_shared<const Partitioning>(*std::move(seed));
    }
    if (solve_request.latency_penalty == 0.0) {
      solve_request.warm.root_basis = hit.entry->response.root_basis;
    }
  }
  if (hit.kind != CacheHitKind::kExact) {
    CacheOutcome(hit.kind).Increment();
  }

  AdviseHooks hooks;
  hooks.token = solve_token;
  std::mutex events_mu;
  std::vector<ProgressEvent> events;
  if (cli.emit_events) {
    hooks.progress = [&events_mu, &events](const ProgressEvent& event) {
      std::lock_guard<std::mutex> lock(events_mu);
      events.push_back(event);
    };
  }
  StatusOr<AdviseResponse> response =
      AdviseWithHooks(*instance, solve_request, hooks);
  if (!response.ok()) {
    return MakeServeError(ServeErrorCodeFor(response.status()),
                          response.status().message(), wire_id);
  }

  // Cache the answer — unless the solve was cancelled externally (a
  // dropped connection): then the recorded budget would overstate what
  // the partial answer actually got, poisoning budget-coverage checks.
  const bool cancelled_externally =
      solve_token.cancelled() && !solve_token.deadline().Expired();
  if (!cancelled_externally) {
    cache_.Insert(std::move(fp), solve_request, *response);
  }
  JsonValue out =
      AdviseResponseToJson(*instance, *response, cli.emit_partitioning, events);
  out.Set("serve", ServeMeta(wire_id, *cache_kind));
  return out;
}

void AdviseServer::Reply(uint64_t connection_id, const JsonValue& document) {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = connections_.find(connection_id);
    if (it == connections_.end()) return;
    conn = it->second;
  }
  ReplyOn(*conn, document);
}

void AdviseServer::ReplyOn(Connection& conn, const JsonValue& document) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (conn.closed || conn.fd < 0) return;
  // A failed write (the peer hung up, or kept its buffer full past the send
  // deadline) may have left a partial frame, so the connection is closed:
  // the reader wakes and tears it down.
  if (!WriteFrame(conn.fd, document.Serialize()).ok()) {
    CloseConnectionLocked(conn);
  }
}

void AdviseServer::CloseConnection(Connection& conn) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  CloseConnectionLocked(conn);
}

void AdviseServer::CloseConnectionLocked(Connection& conn) {
  if (conn.closed) return;
  conn.closed = true;
  // Wakes a reader blocked in recv(); the fd itself is closed only after
  // the reader is joined (reap or Shutdown), never while it may be in use.
  if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
}

void AdviseServer::ReapFinishedReadersLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& conn = *it->second;
    if (conn.done.load(std::memory_order_acquire)) {
      if (conn.reader.joinable()) conn.reader.join();
      if (conn.fd >= 0) {
        ::close(conn.fd);
        conn.fd = -1;
      }
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace vpart

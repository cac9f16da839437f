#ifndef VPART_SERVE_SERVER_H_
#define VPART_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/request_queue.h"
#include "serve/solution_cache.h"
#include "util/status.h"

namespace vpart {

struct AdviseServerOptions {
  /// Filesystem path of the Unix domain socket. Created on Start (a stale
  /// file from a crashed daemon is unlinked first), removed on Shutdown.
  std::string socket_path;
  /// Solve workers draining the request queue.
  int num_workers = 2;
  /// Admission cap: pending (not yet assigned) requests beyond this are
  /// shed with the typed `overloaded` wire error.
  size_t max_queue_depth = 16;
  /// Solution-cache capacity (entries).
  size_t cache_capacity = 64;
  /// End-to-end deadline (queue wait + solve) applied when a request's
  /// serve envelope does not set one. <= 0 means no default.
  double default_deadline_seconds = 0.0;
};

/// The advisor daemon: a Unix-domain-socket server speaking the framed
/// JSON protocol of util/wire.h, with a canonical-fingerprint
/// solution cache in front of the solver stack.
///
/// Threading model:
///  * one accept thread;
///  * one reader thread per connection — it parses frames, applies
///    admission control, and enqueues; writes to the connection are
///    serialized by a per-connection mutex (pipelined responses complete
///    in solve order, correlated by the request's `serve.id`);
///  * `num_workers` solve workers draining the RequestQueue (interactive
///    before batch). Ownership handoff follows the WorkloadPool idiom:
///    a dropped connection purges its pending requests and cancels its
///    in-flight solves (serve/request_queue.h).
///
/// Cache integration per non-batch request (serve/solution_cache.h):
///  * exact fingerprint hit with covering budget — the cached response is
///    remapped onto the incoming presentation and RE-CERTIFIED by the
///    independent SolutionCertifier before it is returned; a failed
///    revalidation falls back to a fresh solve (the cache can waste time,
///    never produce a wrong answer);
///  * shape hit — the cached incumbent (shape-remapped) and terminal root
///    basis seed the new solve through AdviseRequest::warm; the warm-start
///    ladder validates both, so a stale seed degrades to a cold start;
///  * miss — cold solve; the result (and its root basis) is inserted.
///
/// Batch (whole-schema) requests bypass the cache.
class AdviseServer {
 public:
  explicit AdviseServer(AdviseServerOptions options);
  ~AdviseServer();

  AdviseServer(const AdviseServer&) = delete;
  AdviseServer& operator=(const AdviseServer&) = delete;

  /// Binds the socket and starts the accept thread and worker pool.
  Status Start();

  /// Stops accepting, drains workers (in-flight solves are cancelled and
  /// finish with their best answer), closes every connection, and removes
  /// the socket file. Idempotent; also called by the destructor.
  void Shutdown();

  /// Blocks until Shutdown() is called (from a signal handler's thread or
  /// another control thread).
  void Wait();

  const std::string& socket_path() const { return options_.socket_path; }
  CacheStats cache_stats() const { return cache_.Stats(); }
  bool running() const;

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::mutex write_mu;
    bool closed = false;  // under write_mu: no writes after close(fd)
    std::thread reader;
    std::atomic<bool> done{false};  // reader exited; safe to join
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();
  void ServeOne(QueuedRequest request);
  /// Solves (cache-aware) and returns the response document or the error
  /// to send; runs on a worker thread. `wire_id` is echoed in the serve
  /// envelope; `cache_kind` reports the cache outcome for telemetry.
  JsonValue HandleRequest(QueuedRequest& request,
                          const CancellationToken& solve_token,
                          const std::string& wire_id,
                          std::string* cache_kind);
  void Reply(uint64_t connection_id, const JsonValue& document);
  static void ReplyOn(Connection& conn, const JsonValue& document);
  static void CloseConnection(Connection& conn);
  static void CloseConnectionLocked(Connection& conn);  // caller holds write_mu
  void ReapFinishedReadersLocked();

  AdviseServerOptions options_;
  RequestQueue queue_;
  SolutionCache cache_;

  mutable std::mutex mu_;
  std::condition_variable shutdown_cv_;
  /// Serializes Shutdown() bodies (destructor vs explicit call).
  std::mutex shutdown_mu_;
  bool shutdown_complete_ = false;  // under shutdown_mu_
  bool started_ = false;
  bool shutting_down_ = false;
  int listen_fd_ = -1;
  uint64_t next_connection_id_ = 1;
  uint64_t next_request_id_ = 1;
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> connections_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace vpart

#endif  // VPART_SERVE_SERVER_H_

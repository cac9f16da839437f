#ifndef VPART_SERVE_REQUEST_QUEUE_H_
#define VPART_SERVE_REQUEST_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "api/request_json.h"
#include "util/deadline.h"

namespace vpart {

/// One admitted request, queued between a connection's reader thread and
/// the worker pool.
struct QueuedRequest {
  /// Server-assigned id, unique for the server's lifetime.
  uint64_t id = 0;
  /// Connection the request arrived on (and must be answered on).
  uint64_t connection_id = 0;
  /// The parsed request (instance source, AdviseRequest, serve envelope).
  CliRequest cli;
  /// Admission token: carries the request's end-to-end deadline (queue
  /// wait included) and is cancelled when the connection drops. Workers
  /// derive their solve token from it.
  CancellationToken token;
};

/// Bounded two-class FIFO between connection readers and solve workers,
/// with explicit ownership bookkeeping (the WorkloadPool idiom: a request
/// is either PENDING in a queue, ASSIGNED to exactly one worker, or gone):
///
///  * Submit — admission control; typed FailedPrecondition ("overloaded")
///    once the pending depth hits the cap. Never blocks.
///  * Assign — blocks for work; interactive requests dequeue before batch
///    ones. The request is tracked in-flight until Finish.
///  * Finish — the assigned request is done.
///  * DropConnection — a connection died: its pending requests are purged
///    (nobody is left to answer) and the tokens of its in-flight requests
///    are cancelled so workers abandon the solve promptly.
///
/// All transitions happen under one mutex, so a request can never be
/// assigned twice or leak on a racing disconnect.
class RequestQueue {
 public:
  explicit RequestQueue(size_t max_depth);

  /// Admits or sheds. Shedding returns FailedPrecondition whose message
  /// names the depth — the server maps it to the typed `overloaded` wire
  /// error. Fails with the same code after Close() ("shutting down").
  Status Submit(QueuedRequest request);

  /// Blocks until a request is assignable or the queue is closed; nullopt
  /// means closed-and-drained (workers exit). Interactive before batch,
  /// FIFO within a class.
  std::optional<QueuedRequest> Assign();

  /// Replaces the in-flight token of `id` with the worker's solve token so
  /// DropConnection reaches the actual solve. Returns false when the
  /// connection already dropped (the worker should answer nobody and skip
  /// the solve); in that case `solve_token` is cancelled immediately.
  bool AttachSolveToken(uint64_t id, CancellationToken solve_token);

  /// Marks an assigned request done.
  void Finish(uint64_t id);

  /// Purges pending requests of the connection, cancels its in-flight
  /// tokens, and remembers nothing: replies for already-running solves are
  /// the server's job to suppress.
  void DropConnection(uint64_t connection_id);

  /// Stops admission and wakes blocked workers. Pending requests are
  /// dropped; callers answer them with `shutting_down` beforehand if
  /// desired. Also cancels all in-flight tokens (fast shutdown).
  void Close();

  bool closed() const;

 private:
  struct InFlight {
    uint64_t connection_id = 0;
    CancellationToken token;
    bool dropped = false;
  };

  std::optional<QueuedRequest> PopLocked();

  const size_t max_depth_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedRequest> interactive_;
  std::deque<QueuedRequest> batch_;
  std::unordered_map<uint64_t, InFlight> assigned_;
  bool closed_ = false;
};

}  // namespace vpart

#endif  // VPART_SERVE_REQUEST_QUEUE_H_

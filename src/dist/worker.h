#ifndef VPART_DIST_WORKER_H_
#define VPART_DIST_WORKER_H_

#include <memory>
#include <string>
#include <thread>

#include "dist/transport.h"
#include "util/status.h"

namespace vpart {

struct WorkerOptions {
  /// Liveness tick cadence; the coordinator requeues this worker's units
  /// after heartbeat_timeout_seconds of silence.
  double heartbeat_interval_seconds = 1.0;
  /// Test hook: after sending this many unit results the worker drops its
  /// connection without a goodbye — indistinguishable from a crash to the
  /// coordinator, which must requeue whatever the worker still held.
  /// 0 disables the hook.
  int fail_after_units = 0;
};

/// Runs the worker side of the distributed protocol over `transport`
/// (dist/wire_messages.h documents the conversation): say hello, receive
/// the job, then solve units until shutdown or disconnect. Blocks until the
/// session ends; returns Ok on an orderly shutdown or clean coordinator
/// close, the underlying error otherwise.
///
/// Each unit runs the Advise() pipeline, without its telemetry snapshots
/// (AdviseWithoutSnapshots), on the per-table subinstance re-split
/// deterministically from the job's embedded instance text.
Status RunDistWorker(Transport& transport, const WorkerOptions& options = {});

/// Connects to a coordinator's Unix socket and runs RunDistWorker — the
/// body of `vpart_cli --worker`.
Status RunDistWorkerAt(const std::string& socket_path,
                       const WorkerOptions& options = {});

/// A worker on a thread inside this process: what the dist tests (and the
/// TSan leg) use instead of forking real processes. Joins on destruction.
class InProcessWorker {
 public:
  explicit InProcessWorker(const std::string& socket_path,
                           const WorkerOptions& options = {});
  ~InProcessWorker();

  InProcessWorker(const InProcessWorker&) = delete;
  InProcessWorker& operator=(const InProcessWorker&) = delete;

  /// Blocks until the worker loop returns and reports its exit status.
  Status Join();

 private:
  std::thread thread_;
  std::shared_ptr<Status> status_;
  bool joined_ = false;
};

}  // namespace vpart

#endif  // VPART_DIST_WORKER_H_

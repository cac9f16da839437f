#include "dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "api/advise.h"
#include "api/request_json.h"
#include "dist/wire_messages.h"
#include "engine/batch_advisor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/wire.h"

namespace vpart {
namespace {

/// What a job message expands into: the revalidated request and the
/// deterministically re-split per-table subinstances its units index.
struct WorkerJob {
  CliRequest cli;
  std::vector<TableSubinstance> subs;
};

StatusOr<WorkerJob> LoadJob(const JsonValue& message) {
  const JsonValue* request = message.Find("request");
  if (request == nullptr) {
    return InvalidArgumentError("dist worker: job needs a request");
  }
  // Revalidate through the same parser every other entry point uses: a
  // coordinator bug cannot smuggle an inconsistent job past the schema.
  StatusOr<CliRequest> parsed = ParseCliRequest(request->Serialize());
  VPART_RETURN_IF_ERROR(parsed.status());
  StatusOr<Instance> loaded = LoadCliInstance(*parsed);
  VPART_RETURN_IF_ERROR(loaded.status());
  StatusOr<std::vector<TableSubinstance>> split =
      SplitInstanceByTable(*loaded);
  VPART_RETURN_IF_ERROR(split.status());
  return WorkerJob{std::move(*parsed), std::move(*split)};
}

/// Advises the unit's table with the exact per-table call AdviseSchema
/// makes in process, so the merged advice is byte-identical to a local
/// batch.
StatusOr<JsonValue> SolveUnit(const WorkerJob& job, const JsonValue& unit) {
  StatusOr<long> table = LongField(unit, "table", -1);
  VPART_RETURN_IF_ERROR(table.status());
  if (*table < 0 || *table >= static_cast<long>(job.subs.size())) {
    return InvalidArgumentError(
        "dist worker: unit needs a table index in range");
  }
  const Instance& instance = job.subs[static_cast<size_t>(*table)].instance;
  StatusOr<AdviseResponse> advised =
      AdviseWithoutSnapshots(instance, job.cli.request);
  VPART_RETURN_IF_ERROR(advised.status());
  JsonValue reply = MakeDistMessage(kDistMsgUnitResult);
  reply.Set("advisor", EncodeAdvisorResult(instance, advised->result));
  return reply;
}

}  // namespace

Status RunDistWorker(Transport& transport, const WorkerOptions& options) {
  JsonValue hello = MakeDistMessage(kDistMsgHello);
  hello.Set("pid", static_cast<long>(::getpid()));
  VPART_RETURN_IF_ERROR(transport.Send(hello));

  // Heartbeats ride their own thread so a long unit cannot starve them
  // into a false death verdict.
  std::atomic<bool> stop{false};
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  std::thread heartbeat([&] {
    const auto interval = std::chrono::duration<double>(
        std::max(0.05, options.heartbeat_interval_seconds));
    std::unique_lock<std::mutex> lock(hb_mu);
    while (!hb_cv.wait_for(lock, interval, [&] {
      return stop.load(std::memory_order_relaxed);
    })) {
      if (!transport.Send(MakeDistMessage(kDistMsgHeartbeat)).ok()) break;
    }
  });

  static Counter& units_total = MetricsRegistry::Global().GetCounter(
      "vpart_dist_units_total", "Distributed work units solved by workers");

  // Units run on this receive loop: the coordinator ships one unit per
  // worker at a time, so no message waits behind a running unit.
  std::optional<WorkerJob> job;
  int sent = 0;
  Status exit = Status::Ok();
  while (true) {
    StatusOr<JsonValue> message = transport.Receive();
    if (!message.ok()) {
      if (!IsCleanClose(message.status())) exit = message.status();
      break;
    }
    const std::string type = DistMessageType(*message);
    if (type == kDistMsgShutdown) break;
    if (type == kDistMsgJob) {
      StatusOr<WorkerJob> loaded = LoadJob(*message);
      if (loaded.ok()) {
        job = std::move(*loaded);
        continue;
      }
      job.reset();
      JsonValue reply = MakeDistMessage(kDistMsgUnitError);
      reply.Set("session", LongField(*message, "session", 0).value_or(0));
      reply.Set("id", -1L);
      reply.Set("error", std::string(loaded.status().message()));
      (void)transport.Send(reply);
      continue;
    }
    if (type != kDistMsgUnit) {
      exit = InvalidArgumentError("dist worker: unexpected message type \"" +
                                  type + "\"");
      break;
    }
    // A malformed id or session answers under the fallback, which the
    // coordinator matches to no unit.
    const long id = LongField(*message, "id", -1).value_or(-1);
    const long session = LongField(*message, "session", 0).value_or(0);
    Span span("dist_unit", "dist");
    span.AddArg("id", id);
    StatusOr<JsonValue> answer =
        job.has_value() ? SolveUnit(*job, *message)
                        : StatusOr<JsonValue>(FailedPreconditionError(
                              "dist worker: unit before job"));
    JsonValue reply;
    if (answer.ok()) {
      reply = std::move(*answer);
    } else {
      reply = MakeDistMessage(kDistMsgUnitError);
      reply.Set("error", std::string(answer.status().message()));
    }
    reply.Set("id", id);
    reply.Set("session", session);
    // A failed send means the coordinator is gone; the next Receive says
    // how it went.
    if (!transport.Send(reply).ok()) continue;
    units_total.Increment();
    if (options.fail_after_units > 0 && ++sent >= options.fail_after_units) {
      // Crash simulation: vanish mid-session, without a goodbye.
      transport.Abort();
      break;
    }
  }

  stop.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(hb_mu);
  }
  hb_cv.notify_all();
  heartbeat.join();
  transport.Close();
  return exit;
}

Status RunDistWorkerAt(const std::string& socket_path,
                       const WorkerOptions& options) {
  StatusOr<std::unique_ptr<Transport>> transport = ConnectUds(socket_path);
  VPART_RETURN_IF_ERROR(transport.status());
  return RunDistWorker(**transport, options);
}

InProcessWorker::InProcessWorker(const std::string& socket_path,
                                 const WorkerOptions& options)
    : status_(std::make_shared<Status>(Status::Ok())) {
  std::shared_ptr<Status> status = status_;
  thread_ = std::thread([socket_path, options, status] {
    *status = RunDistWorkerAt(socket_path, options);
  });
}

InProcessWorker::~InProcessWorker() {
  if (!joined_ && thread_.joinable()) thread_.join();
}

Status InProcessWorker::Join() {
  if (!joined_ && thread_.joinable()) thread_.join();
  joined_ = true;
  return *status_;
}

}  // namespace vpart

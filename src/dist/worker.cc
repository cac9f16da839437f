#include "dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "api/advise.h"
#include "api/request_json.h"
#include "cost/cost_model_registry.h"
#include "dist/wire_messages.h"
#include "engine/batch_advisor.h"
#include "engine/thread_pool.h"
#include "mip/branch_and_bound.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/formulation.h"
#include "solver/latency.h"
#include "util/wire.h"

namespace vpart {
namespace {

void UpdateMin(std::atomic<double>& target, double candidate) {
  double current = target.load(std::memory_order_relaxed);
  while (candidate < current &&
         !target.compare_exchange_weak(current, candidate,
                                       std::memory_order_relaxed)) {
  }
}

/// Everything a job message expands into. Owned by the solver thread:
/// job messages ride the same queue as units, so a new session's state
/// never races a unit still solving under the previous one.
struct WorkerJob {
  CliRequest cli;
  CancellationToken token;
  long session = 0;
  // Subtree mode.
  std::shared_ptr<const Instance> instance;
  std::shared_ptr<const CostCoefficients> cost_model;
  std::optional<IlpFormulation> formulation;
  // Table mode.
  std::vector<TableSubinstance> subs;
};

}  // namespace

Status RunDistWorker(Transport& transport, const WorkerOptions& options) {
  JsonValue hello = MakeDistMessage(kDistMsgHello);
  hello.Set("pid", static_cast<long>(::getpid()));
  VPART_RETURN_IF_ERROR(transport.Send(hello));

  std::atomic<bool> stop{false};
  std::atomic<double> external_ub{kLpInfinity};

  // Heartbeats ride their own thread so a long node LP cannot starve them
  // into a false death verdict.
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
  auto request_stop = [&] {
    stop.store(true, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(hb_mu);
    }
    hb_cv.notify_all();
  };

  // Jobs and units queue in arrival order for the solver thread; the
  // receive loop itself only handles the instant messages (incumbent
  // broadcasts, shutdown) so a running subtree search never blocks them.
  std::mutex q_mu;
  std::condition_variable q_cv;
  std::deque<JsonValue> queue;
  bool queue_closed = false;

  static Counter& units_total = MetricsRegistry::Global().GetCounter(
      "vpart_dist_units_total", "Distributed work units solved by workers");

  std::thread solver([&] {
    WorkerJob job;
    bool got_job = false;
    std::function<StatusOr<JsonValue>(const JsonValue&)> solve_unit;
    int sent = 0;

    auto handle_job = [&](const JsonValue& message) -> Status {
      const JsonValue* request = message.Find("request");
      const JsonValue* mode = message.Find("mode");
      if (request == nullptr || mode == nullptr || !mode->is_string()) {
        return InvalidArgumentError("dist worker: job needs mode + request");
      }
      // Revalidate through the same parser every other entry point uses: a
      // coordinator bug cannot smuggle an inconsistent job past the schema.
      StatusOr<CliRequest> parsed = ParseCliRequest(request->Serialize());
      VPART_RETURN_IF_ERROR(parsed.status());
      StatusOr<Instance> loaded = LoadCliInstance(*parsed);
      VPART_RETURN_IF_ERROR(loaded.status());

      job = WorkerJob();
      job.cli = std::move(*parsed);
      StatusOr<long> session = LongField(message, "session", 0);
      VPART_RETURN_IF_ERROR(session.status());
      job.session = *session;
      job.token =
          CancellationToken::WithDeadline(job.cli.request.time_limit_seconds);
      // A fresh session starts with no incumbent; broadcasts refill this.
      // (A broadcast racing this reset is only ever lost, never misapplied
      // to pruning decisions that matter — stale-session results are
      // discarded by the coordinator.)
      external_ub.store(kLpInfinity, std::memory_order_relaxed);
      const AdviseRequest& advise = job.cli.request;

      if (mode->as_string() == "subtrees") {
        job.instance = std::make_shared<const Instance>(std::move(*loaded));
        StatusOr<std::shared_ptr<const CostCoefficients>> built =
            CostModelRegistry::Global().Build(job.instance, advise.cost,
                                              advise.cost_model);
        VPART_RETURN_IF_ERROR(built.status());
        job.cost_model = std::move(*built);
        FormulationOptions fopts;
        fopts.num_sites = advise.num_sites;
        fopts.allow_replication = advise.allow_replication;
        job.formulation.emplace(BuildIlpFormulation(*job.cost_model, fopts));
        if (advise.latency_penalty > 0) {
          AddLatencyToFormulation(*job.cost_model, advise.latency_penalty,
                                  *job.formulation);
        }
        solve_unit = [&](const JsonValue& unit) -> StatusOr<JsonValue> {
          const JsonValue* fx = unit.Find("fixings");
          StatusOr<std::vector<BoundFix>> fixings =
              DecodeFixings(fx != nullptr ? *fx : JsonValue::MakeArray());
          VPART_RETURN_IF_ERROR(fixings.status());
          const JsonValue* bv = unit.Find("basis");
          StatusOr<std::shared_ptr<const Basis>> basis =
              DecodeBasis(bv != nullptr ? *bv : JsonValue());
          VPART_RETURN_IF_ERROR(basis.status());

          LpModel model = job.formulation->model;
          for (const BoundFix& fix : *fixings) {
            if (fix.column >= model.num_variables()) {
              return InvalidArgumentError(
                  "dist worker: fixing column outside the model");
            }
            model.SetVariableBounds(fix.column, fix.lower, fix.upper);
          }

          const AdviseRequest& req = job.cli.request;
          MipOptions mip;
          mip.time_limit_seconds = job.token.SolverBudgetSeconds();
          mip.relative_gap = req.ilp.mip_gap;
          mip.lp_options.audit_level = req.ilp.lp_audit;
          mip.enable_dive = req.ilp.enable_dive;
          mip.num_threads =
              req.ilp.bnb_threads > 0 ? req.ilp.bnb_threads : 1;
          mip.root_basis = *basis;
          mip.external_upper_bound = &external_ub;
          mip.cancel_flag = &stop;
          const long session = job.session;
          mip.progress = [&, session](const MipProgress& progress) {
            if (progress.incumbent_values.empty()) return;
            UpdateMin(external_ub, progress.incumbent_objective);
            JsonValue incumbent = MakeDistMessage(kDistMsgIncumbent);
            incumbent.Set("session", session);
            incumbent.Set("objective", progress.incumbent_objective);
            JsonValue values = JsonValue::MakeArray();
            for (double v : progress.incumbent_values) values.Append(v);
            incumbent.Set("values", std::move(values));
            (void)transport.Send(incumbent);
          };

          MipResult result = SolveMip(model, mip);
          if (result.has_incumbent()) {
            UpdateMin(external_ub, result.objective);
          }
          JsonValue reply = MakeDistMessage(kDistMsgUnitResult);
          reply.Set("mip", EncodeMipResult(result));
          return reply;
        };
      } else if (mode->as_string() == "tables") {
        StatusOr<std::vector<TableSubinstance>> split =
            SplitInstanceByTable(*loaded);
        VPART_RETURN_IF_ERROR(split.status());
        job.subs = std::move(*split);
        solve_unit = [&](const JsonValue& unit) -> StatusOr<JsonValue> {
          StatusOr<long> table = LongField(unit, "table", -1);
          VPART_RETURN_IF_ERROR(table.status());
          if (*table < 0 || *table >= static_cast<long>(job.subs.size())) {
            return InvalidArgumentError(
                "dist worker: unit needs a table index in range");
          }
          const size_t t = static_cast<size_t>(*table);
          // The exact per-table call AdviseSchema's in-process pool makes,
          // so the merged advice is byte-identical to a local batch.
          StatusOr<AdviseResponse> advised =
              AdviseWithoutSnapshots(job.subs[t].instance, job.cli.request);
          VPART_RETURN_IF_ERROR(advised.status());
          JsonValue reply = MakeDistMessage(kDistMsgUnitResult);
          reply.Set("advisor", EncodeAdvisorResult(job.subs[t].instance,
                                                   advised->result));
          return reply;
        };
      } else {
        return InvalidArgumentError("dist worker: unknown mode \"" +
                                    mode->as_string() + "\"");
      }
      got_job = true;
      return Status::Ok();
    };

    while (true) {
      JsonValue item;
      {
        std::unique_lock<std::mutex> lock(q_mu);
        q_cv.wait(lock, [&] { return queue_closed || !queue.empty(); });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      if (DistMessageType(item) == kDistMsgJob) {
        Status handled = handle_job(item);
        if (!handled.ok()) {
          got_job = false;
          JsonValue reply = MakeDistMessage(kDistMsgUnitError);
          reply.Set("session", LongField(item, "session", 0).value_or(0));
          reply.Set("id", -1L);
          reply.Set("error", std::string(handled.message()));
          if (!transport.Send(reply).ok()) return;
        }
        continue;
      }
      // A unit.
      // A malformed id or session answers under the fallback, which the
      // coordinator matches to no unit.
      const long id = LongField(item, "id", -1).value_or(-1);
      const long session = LongField(item, "session", 0).value_or(0);
      Span span("dist_unit", "dist");
      span.AddArg("id", id);
      StatusOr<JsonValue> answer =
          got_job ? solve_unit(item)
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
      if (!transport.Send(reply).ok()) return;
      units_total.Increment();
      if (options.fail_after_units > 0 && ++sent >= options.fail_after_units) {
        // Crash simulation: vanish mid-session. Abort (not Close) so the
        // receive loop unblocks the same way a real peer death would.
        request_stop();
        transport.Abort();
        return;
      }
    }
  });

  Status exit = Status::Ok();
  while (true) {
    StatusOr<JsonValue> message = transport.Receive();
    if (!message.ok()) {
      if (!IsCleanClose(message.status()) &&
          !stop.load(std::memory_order_relaxed)) {
        exit = message.status();
      }
      break;
    }
    const std::string type = DistMessageType(*message);
    if (type == kDistMsgShutdown) break;
    if (type == kDistMsgIncumbent) {
      const JsonValue* objective = message->Find("objective");
      if (objective != nullptr && objective->is_number()) {
        UpdateMin(external_ub, objective->as_number());
      }
      continue;
    }
    if (type == kDistMsgJob || type == kDistMsgUnit) {
      {
        std::lock_guard<std::mutex> lock(q_mu);
        queue.push_back(std::move(*message));
      }
      q_cv.notify_one();
      continue;
    }
    exit = InvalidArgumentError("dist worker: unexpected message type \"" +
                                type + "\"");
    break;
  }

  request_stop();
  {
    std::lock_guard<std::mutex> lock(q_mu);
    queue_closed = true;
    queue.clear();  // drop unstarted work; the coordinator requeues it
  }
  q_cv.notify_all();
  solver.join();
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

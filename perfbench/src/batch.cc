// `batch`: whole-schema advice on seed-generated schemas of the paper's
// Table-1 default class (100 tables x 100 transactions) at 3 sites, SA at
// request defaults (6 restarts, capped by count, not by a clock) and
// certification on, through AdviseSchema with 2 table threads. The traced
// pass also ships the first schemas to 2 spawned `vpart_cli --worker`
// processes through DistCoordinator::AdviseSchemaDistributed, which is
// where the dist layer's figures come from.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/advise.h"
#include "dist/coordinator.h"
#include "engine/batch_advisor.h"
#include "instances/random_instance.h"
#include "instances/tpcc.h"
#include "obs/metrics.h"
#include "workload.h"

namespace perfbench {
namespace {

using vpart::BatchAdviseRequest;
using vpart::BatchAdvisorResult;
using vpart::Instance;
using vpart::Status;
using vpart::StatusOr;

constexpr int kTableThreads = 2;
constexpr int kWorkers = 2;
constexpr int kReferenceThreads = 4;
/// Schemas the batch workload's traced pass ships through a coordinator.
constexpr size_t kDistProbeSchemas = 4;

long SaRestartsTotal() {
  return vpart::MetricsRegistry::Global()
      .GetCounter("vpart_sa_restarts_total")
      .Value();
}

BatchAdviseRequest SchemaRequest(int table_threads) {
  BatchAdviseRequest batch;
  batch.request.solver = "sa";
  batch.request.num_sites = 3;
  batch.request.certify = true;
  batch.table_threads = table_threads;
  return batch;
}

/// Reference answer of one schema: combined cost and per-table costs.
struct SchemaAnswer {
  double cost = 0.0;
  std::vector<double> tables;
};

class BatchWorkload : public Workload {
 public:
  explicit BatchWorkload(const Options& options) : options_(options) {}

  Status Prepare() override {
    const int count = options_.tiny ? 2 : 4 * options_.seconds;
    const int size = options_.tiny ? 20 : 100;
    for (int i = 0; i < count; ++i) {
      schemas_.push_back(std::make_shared<const Instance>(
          vpart::MakeRandomInstance(vpart::Table1DefaultParams(
              size, MixSeed(options_.seed, 0x5C, i)))));
    }
    return Status::Ok();
  }

  /// The one-table-thread answer of every schema, four schemas at a time;
  /// the timed 2-thread answers and the dist probe are checked against it.
  StatusOr<JsonValue> ComputeReferences() override {
    std::vector<StatusOr<BatchAdvisorResult>> answers(
        schemas_.size(), vpart::InternalError("not run"));
    std::atomic<size_t> next{0};
    const long restarts_before = SaRestartsTotal();
    std::vector<std::thread> threads;
    for (int t = 0; t < kReferenceThreads; ++t) {
      threads.emplace_back([&] {
        for (size_t i = next++; i < schemas_.size(); i = next++) {
          answers[i] = vpart::AdviseSchema(*schemas_[i], SchemaRequest(1));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    JsonValue list = JsonValue::MakeArray();
    for (StatusOr<BatchAdvisorResult>& answer : answers) {
      if (!answer.ok()) return answer.status();
      JsonValue tables = JsonValue::MakeArray();
      for (const vpart::TableAdvice& table : answer->tables) {
        tables.Append(table.result.cost);
      }
      JsonValue schema = JsonValue::MakeObject();
      schema.Set("cost", answer->combined.cost);
      schema.Set("tables", std::move(tables));
      list.Append(std::move(schema));
    }
    JsonValue refs = JsonValue::MakeObject();
    refs.Set("sa_restarts", SaRestartsTotal() - restarts_before);
    refs.Set("schemas", std::move(list));
    return refs;
  }

  Status LoadReferences(const JsonValue& refs) override {
    const JsonValue* list = refs.Find("schemas");
    if (list == nullptr || !list->is_array() ||
        list->as_array().size() != schemas_.size()) {
      return vpart::InvalidArgumentError("references do not match the plan");
    }
    for (const JsonValue& schema : list->as_array()) {
      SchemaAnswer answer;
      answer.cost = NumberAt(schema, "cost", -1);
      const JsonValue* tables = schema.Find("tables");
      if (tables == nullptr || !tables->is_array()) {
        return vpart::InvalidArgumentError("reference without table costs");
      }
      for (const JsonValue& cost : tables->as_array()) {
        answer.tables.push_back(cost.as_number());
      }
      references_.push_back(std::move(answer));
    }
    reference_restarts_ = static_cast<long>(NumberAt(refs, "sa_restarts"));
    return Status::Ok();
  }

  Status StartUp() override {
    const Instance tpcc = vpart::MakeTpccInstance();
    StatusOr<BatchAdvisorResult> warm_up = Solve(tpcc, nullptr);
    return warm_up.ok() ? Status::Ok() : warm_up.status();
  }

  void RunTimed(SpanLog* spans, Outcome* out) override {
    const long restarts_before = SaRestartsTotal();
    RunSchemas(schemas_.size(), nullptr, spans, out);
    // Fixed-work guard: every schema already matched its reference cost
    // table by table (Check); the anneals run must match too.
    const long restarts = SaRestartsTotal() - restarts_before;
    if (restarts != reference_restarts_) {
      out->Fail("fixed-work guard: " + std::to_string(restarts) +
                " SA anneals, the set-up reference ran " +
                std::to_string(reference_restarts_));
    }
    double total_cost = 0.0;
    for (const SchemaAnswer& answer : references_) total_cost += answer.cost;
    out->work.Set("solver.sa_restarts", restarts);
    out->work.Set("schema_cost_total", total_cost);
    out->layer["solver.sa_restarts"] = static_cast<double>(restarts);
  }

  void ProbeLayers(SpanLog& spans, Outcome* out) override {
    ScopedSpan probe(&spans, "bench", "standalone layer calls");
    ProbeObsEndState(spans, probe.id(), &out->layer);
    // Request-level entry points on the first tables of the first schema.
    StatusOr<std::vector<vpart::TableSubinstance>> subs =
        vpart::SplitInstanceByTable(*schemas_[0]);
    std::vector<ProbeInput> inputs;
    if (subs.ok()) {
      const size_t probes = std::min<size_t>(6, subs->size());
      for (size_t t = 0; t < probes; ++t) {
        auto instance =
            std::make_shared<const Instance>((*subs)[t].instance);
        vpart::AdviseRequest request = SchemaRequest(1).request;
        StatusOr<vpart::AdviseResponse> answer =
            vpart::Advise(*instance, request);
        if (!answer.ok()) {
          out->Fail("probe advise: " + answer.status().ToString());
          continue;
        }
        inputs.push_back({instance, request, *answer});
      }
    } else {
      out->Fail("probe split: " + subs.status().ToString());
    }
    ProbeRequestLayers(inputs, spans, probe.id(), out);
    std::vector<vpart::AdvisorResult> results;
    for (const vpart::TableAdvice& table : first_answer_.tables) {
      results.push_back(table.result);
    }
    ProbeEngineLayers(*schemas_[0], results, 3, spans, probe.id(), out);
    MarkIdle(&out->layer,
             {"lp.pivots", "lp.factorizations", "lp.busy_s", "lp.us_per_pivot",
              "lp.seeded_pivots", "mip.nodes", "mip.factorizations_per_node",
              "mip.self_s", "serve.exact_p50_ms", "serve.seeded_p50_ms",
              "serve.seeded_p99_ms", "serve.wait_ms", "serve.exact_hit_ratio",
              "serve.evictions"});
    // The dist layer on the same inputs: the first schemas through a
    // coordinator and two spawned workers, outside the timed requests.
    ScopedSpan dist(&spans, "dist", "tables-mode probe", probe.id());
    StatusOr<std::unique_ptr<vpart::DistCoordinator>> coordinator =
        StartCoordinator();
    if (!coordinator.ok()) {
      out->Fail("dist probe: " + coordinator.status().ToString());
      return;
    }
    Outcome shipped;
    RunSchemas(std::min<size_t>(kDistProbeSchemas, schemas_.size()),
               coordinator->get(), nullptr, &shipped);
    (*coordinator)->Shutdown();
    for (const char* name : {"dist.units", "dist.requeued",
                             "dist.worker_busy_ratio",
                             "dist.unit_overhead_ms"}) {
      out->layer[name] = shipped.layer[name];
    }
    for (const std::string& failure : shipped.failures) {
      out->Fail("dist probe: " + failure);
    }
    out->failed += shipped.failed - static_cast<long>(shipped.failures.size());
  }

 private:
  /// A coordinator with `kWorkers` spawned `vpart_cli --worker` processes;
  /// Start() returns once every worker has said hello.
  StatusOr<std::unique_ptr<vpart::DistCoordinator>> StartCoordinator() const {
    vpart::DistCoordinator::Options dist;
    dist.socket_path =
        options_.run_dir + "/w" + std::to_string(::getpid()) + ".sock";
    dist.num_workers = kWorkers;
    dist.worker_binary = options_.worker_binary;
    return vpart::DistCoordinator::Start(dist);
  }

  /// Whole-schema advice: in process with 2 table threads, or through
  /// `coordinator` when one is given.
  static StatusOr<BatchAdvisorResult> Solve(
      const Instance& instance, vpart::DistCoordinator* coordinator) {
    if (coordinator != nullptr) {
      return coordinator->AdviseSchemaDistributed(instance, SchemaRequest(1));
    }
    return vpart::AdviseSchema(instance, SchemaRequest(kTableThreads));
  }

  /// Advises the first `count` schemas in order, each checked against its
  /// set-up reference; fills the timings and the engine or dist figures.
  /// The CPU and memory figures cover this process only, so the dist probe
  /// leaves them out.
  void RunSchemas(size_t count, vpart::DistCoordinator* coordinator,
                  SpanLog* spans, Outcome* out) {
    std::vector<double> table_seconds;
    std::vector<double> pool_busy;
    double busy_total = 0.0;
    long units = 0;
    const double cpu_start = SelfCpuSeconds();
    const double start = Now();
    for (size_t i = 0; i < count; ++i) {
      StatusOr<BatchAdvisorResult> result = vpart::InternalError("not run");
      double latency = 0.0;
      {
        ScopedSpan span(spans, coordinator != nullptr ? "dist" : "engine",
                        coordinator != nullptr ? "AdviseSchemaDistributed"
                                               : "AdviseSchema",
                        -1, static_cast<long>(i));
        const double sent = Now();
        result = Solve(*schemas_[i], coordinator);
        latency = Now() - sent;
      }
      std::string error = Check(i, result);
      if (result.ok()) {
        out->AddAdvice(result->combined.cost,
                       result->combined.single_site_cost);
        double busy = 0.0;
        for (const vpart::TableAdvice& table : result->tables) {
          table_seconds.push_back(table.result.seconds);
          busy += table.result.seconds;
        }
        busy_total += busy;
        units += static_cast<long>(result->tables.size());
        pool_busy.push_back(busy / (kTableThreads * latency));
        if (first_answer_.tables.empty()) first_answer_ = *result;
      }
      out->Record(latency, error);
    }
    out->wall_s = Now() - start;
    out->cpu_s = SelfCpuSeconds() - cpu_start;
    out->peak_rss_mb = SelfPeakRssMb();
    std::map<std::string, double>& layer = out->layer;
    layer["solver.table_ms"] = Median(table_seconds) * 1e3;
    if (coordinator != nullptr) {
      layer["dist.units"] = static_cast<double>(units);
      layer["dist.requeued"] =
          static_cast<double>(coordinator->requeued_total());
      layer["dist.worker_busy_ratio"] = busy_total / (kWorkers * out->wall_s);
      layer["dist.unit_overhead_ms"] =
          units > 0 ? (kWorkers * out->wall_s - busy_total) / units * 1e3
                    : 0.0;
    } else {
      layer["engine.pool_busy_ratio"] = Mean(pool_busy);
    }
  }

  std::string Check(size_t i,
                    const StatusOr<BatchAdvisorResult>& result) const {
    const std::string label = "schema " + std::to_string(i);
    if (!result.ok()) return label + ": " + result.status().ToString();
    const SchemaAnswer& expected = references_[i];
    const double fault = options_.inject_fault ? 1.0 : 0.0;
    if (result->combined.cost != expected.cost + fault) {
      return label + ": cost " + std::to_string(result->combined.cost) +
             ", set-up reference " + std::to_string(expected.cost + fault);
    }
    if (result->tables.size() != expected.tables.size()) {
      return label + ": " + std::to_string(result->tables.size()) +
             " tables advised, reference has " +
             std::to_string(expected.tables.size());
    }
    for (size_t t = 0; t < expected.tables.size(); ++t) {
      if (result->tables[t].result.cost != expected.tables[t]) {
        return label + ": table " + result->tables[t].table_name +
               " differs from its set-up reference";
      }
    }
    return "";
  }

  Options options_;
  std::vector<std::shared_ptr<const Instance>> schemas_;
  std::vector<SchemaAnswer> references_;
  long reference_restarts_ = 0;
  BatchAdvisorResult first_answer_;
};

}  // namespace

std::unique_ptr<Workload> MakeBatchWorkload(const Options& options) {
  return std::make_unique<BatchWorkload>(options);
}

}  // namespace perfbench

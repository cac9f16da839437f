// Standalone calls into each layer's public entry points, run by the traced
// pass on the workload's own inputs after the timed requests. Each call is
// a span in the benchmark's log; the medians become per-layer metrics.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/request_json.h"
#include "check/certifier.h"
#include "cost/cost_model_registry.h"
#include "dist/wire_messages.h"
#include "engine/batch_advisor.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/fingerprint.h"
#include "serve/solution_cache.h"
#include "solver/attribute_groups.h"
#include "solver/sa_solver.h"
#include "util/wire.h"
#include "workload.h"
#include "workload/instance_io.h"

namespace perfbench {
namespace {

using vpart::Instance;

constexpr int kFastReps = 15;  // microsecond-scale calls
constexpr int kSlowReps = 5;   // millisecond-scale calls

/// WriteFrame + ReadFrame of `payload` over a socketpair, in microseconds.
/// Payloads larger than a socket buffer are written from a helper thread.
double WireFrameMicros(const std::string& payload, SpanLog& spans,
                       long parent, bool* ok) {
  int fds[2];
  *ok = ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0;
  if (!*ok) return 0.0;
  const bool fits = payload.size() < (48u << 10);
  const double seconds =
      TimeCalls(&spans, parent, "util", "WriteFrame+ReadFrame", kFastReps,
                [&] {
                  if (fits) {
                    *ok = vpart::WriteFrame(fds[0], payload).ok() &&
                          vpart::ReadFrame(fds[1]).ok();
                    return;
                  }
                  bool written = false;
                  std::thread writer([&] {
                    written = vpart::WriteFrame(fds[0], payload).ok();
                  });
                  const bool read = vpart::ReadFrame(fds[1]).ok();
                  writer.join();
                  *ok = written && read;
                });
  ::close(fds[0]);
  ::close(fds[1]);
  return seconds * 1e6;
}

/// The same anneal the ilp solver runs to seed its branch & bound.
vpart::SaOptions WarmStartOptions(const vpart::AdviseRequest& request) {
  vpart::SaOptions sa;
  sa.seed = request.seed;
  sa.allow_replication = request.allow_replication;
  sa.time_limit_seconds =
      request.time_limit_seconds > 0
          ? std::min(request.ilp.warm_start_seconds,
                     request.time_limit_seconds / 4)
          : request.ilp.warm_start_seconds;
  return sa;
}

/// Times one input's entry points; a call that fails is reported through
/// `out` so a broken probe never passes for a fast one.
std::map<std::string, double> ProbeOne(const ProbeInput& input,
                                       SpanLog& spans, long parent,
                                       Outcome* out) {
  const Instance& instance = *input.instance;
  const vpart::AdviseRequest& request = input.request;
  const vpart::AdviseResponse& response = input.response;
  std::map<std::string, double> stage;
  auto expect = [&](bool ok, const std::string& call) {
    if (!ok) out->Fail("standalone " + call + " failed on " + instance.name());
  };

  vpart::CliRequest cli;
  cli.instance_text = vpart::WriteInstanceText(instance);
  cli.request = request;
  const std::string request_json = vpart::CliRequestToJson(cli).Serialize();
  stage["dist.job_bytes"] = static_cast<double>(request_json.size());
  bool ok = false;
  stage["api.parse_request_us"] =
      1e6 * TimeCalls(&spans, parent, "api", "ParseCliRequest", kFastReps,
                      [&] { ok = vpart::ParseCliRequest(request_json).ok(); });
  expect(ok, "ParseCliRequest");
  stage["workload.parse_instance_us"] =
      1e6 * TimeCalls(&spans, parent, "workload", "LoadCliInstance", kFastReps,
                      [&] { ok = vpart::LoadCliInstance(cli).ok(); });
  expect(ok, "LoadCliInstance");

  const vpart::InstanceFingerprint fp = vpart::FingerprintInstance(instance);
  stage["serve.fingerprint_us"] =
      1e6 * TimeCalls(&spans, parent, "serve", "FingerprintInstance",
                      kFastReps,
                      [&] { (void)vpart::FingerprintInstance(instance); });
  vpart::SolutionCache cache;
  cache.Insert(fp, request, response);
  stage["serve.lookup_us"] =
      1e6 * TimeCalls(&spans, parent, "serve", "SolutionCache::Lookup",
                      kFastReps, [&] {
                        ok = cache.Lookup(fp, request).kind ==
                             vpart::CacheHitKind::kExact;
                      });
  expect(ok, "SolutionCache::Lookup");
  stage["serve.remap_us"] =
      1e6 * TimeCalls(&spans, parent, "serve", "RemapPartitioning", kFastReps,
                      [&] {
                        ok = vpart::RemapPartitioning(
                                 fp, response.result.partitioning, fp)
                                 .ok();
                      });
  expect(ok, "RemapPartitioning");

  std::string reply;
  stage["api.encode_response_us"] =
      1e6 * TimeCalls(&spans, parent, "api", "AdviseResponseToJson",
                      kFastReps, [&] {
                        reply = vpart::AdviseResponseToJson(instance, response,
                                                            true, {})
                                    .Serialize();
                      });
  stage["api.response_bytes"] = static_cast<double>(reply.size());
  stage["api.decode_response_us"] =
      1e6 * TimeCalls(&spans, parent, "api", "JsonValue::Parse", kFastReps,
                      [&] { ok = JsonValue::Parse(reply).ok(); });
  expect(ok, "JsonValue::Parse");
  stage["util.wire_frame_us"] = WireFrameMicros(reply, spans, parent, &ok);
  expect(ok, "WriteFrame+ReadFrame");

  // The solve instance: attribute-grouped when the request asks for it.
  auto solve_instance = input.instance;
  stage["solver.grouping_ms"] = 0.0;
  if (request.use_attribute_grouping) {
    vpart::StatusOr<vpart::AttributeGrouping> grouping =
        vpart::InternalError("not run");
    stage["solver.grouping_ms"] =
        1e3 * TimeCalls(&spans, parent, "solver", "BuildAttributeGrouping",
                        kSlowReps, [&] {
                          grouping = vpart::BuildAttributeGrouping(instance);
                        });
    expect(grouping.ok(), "BuildAttributeGrouping");
    if (grouping.ok()) {
      solve_instance = std::make_shared<const Instance>(grouping->reduced);
    }
  }
  const vpart::CostModelRegistry& registry = vpart::CostModelRegistry::Global();
  stage["cost.build_ms"] =
      1e3 * TimeCalls(&spans, parent, "cost", "CostModelRegistry::Build",
                      kSlowReps, [&] {
                        ok = registry
                                 .Build(input.instance, request.cost,
                                        request.cost_model)
                                 .ok();
                      });
  expect(ok, "CostModelRegistry::Build");
  auto model =
      registry.Build(solve_instance, request.cost, request.cost_model);
  stage["solver.warm_start_ms"] = 0.0;
  if (model.ok()) {
    const vpart::SaOptions sa = WarmStartOptions(request);
    stage["solver.warm_start_ms"] =
        1e3 * TimeCalls(&spans, parent, "solver", "SolveWithSa", kSlowReps,
                        [&] {
                          (void)vpart::SolveWithSa(**model, request.num_sites,
                                                   sa);
                        });
  }
  const vpart::SolutionCertifier certifier;
  stage["check.certify_ms"] =
      1e3 * TimeCalls(&spans, parent, "check", "SolutionCertifier::Certify",
                      kSlowReps, [&] {
                        ok = certifier.Certify(instance, request, response)
                                 .certified;
                      });
  expect(ok, "SolutionCertifier::Certify");
  stage["dist.codec_us"] =
      1e6 * TimeCalls(&spans, parent, "dist",
                      "EncodeAdvisorResult+DecodeAdvisorResult", kFastReps,
                      [&] {
                        const JsonValue encoded =
                            vpart::EncodeAdvisorResult(instance,
                                                       response.result);
                        ok = vpart::DecodeAdvisorResult(instance, encoded).ok();
                      });
  expect(ok, "DecodeAdvisorResult");
  return stage;
}

}  // namespace

std::vector<std::map<std::string, double>> ProbeRequestLayers(
    const std::vector<ProbeInput>& inputs, SpanLog& spans, long parent,
    Outcome* out) {
  std::vector<std::map<std::string, double>> per_input;
  std::map<std::string, std::vector<double>> samples;
  for (const ProbeInput& input : inputs) {
    per_input.push_back(ProbeOne(input, spans, parent, out));
    for (const auto& [key, value] : per_input.back()) {
      samples[key].push_back(value);
    }
  }
  for (auto& [key, values] : samples) out->layer[key] = Median(values);
  return per_input;
}

std::vector<vpart::AdvisorResult> SaTableAnswers(const Instance& instance,
                                                 Outcome* out) {
  vpart::BatchAdviseRequest batch;
  batch.request.solver = "sa";
  batch.request.num_sites = 3;
  batch.table_threads = 1;
  vpart::StatusOr<vpart::BatchAdvisorResult> advised =
      vpart::AdviseSchema(instance, batch);
  std::vector<vpart::AdvisorResult> results;
  if (!advised.ok()) {
    out->Fail("standalone AdviseSchema failed: " + advised.status().ToString());
    return results;
  }
  for (const vpart::TableAdvice& table : advised->tables) {
    results.push_back(table.result);
  }
  return results;
}

void ProbeEngineLayers(const Instance& instance,
                       const std::vector<vpart::AdvisorResult>& table_results,
                       int num_sites, SpanLog& spans, long parent,
                       Outcome* out) {
  vpart::StatusOr<std::vector<vpart::TableSubinstance>> subs =
      vpart::InternalError("not run");
  out->layer["engine.split_ms"] =
      1e3 * TimeCalls(&spans, parent, "engine", "SplitInstanceByTable",
                      kSlowReps,
                      [&] { subs = vpart::SplitInstanceByTable(instance); });
  out->layer["engine.merge_ms"] = 0.0;
  if (!subs.ok() || subs->size() != table_results.size()) {
    out->Fail("standalone SplitInstanceByTable failed on " + instance.name());
    return;
  }
  // MergeTableAdvice consumes its answers; copy them outside the timing.
  std::vector<std::vector<vpart::AdvisorResult>> copies(kSlowReps,
                                                        table_results);
  bool ok = false;
  out->layer["engine.merge_ms"] =
      1e3 * TimeCalls(&spans, parent, "engine", "MergeTableAdvice", kSlowReps,
                      [&] {
                        ok = vpart::MergeTableAdvice(instance, *subs,
                                                     std::move(copies.back()),
                                                     num_sites)
                                 .ok();
                        copies.pop_back();
                      });
  if (!ok) {
    out->Fail("standalone MergeTableAdvice failed on " + instance.name());
  }
}

void ProbeObsEndState(SpanLog& spans, long parent,
                      std::map<std::string, double>* layer) {
  vpart::Tracer& tracer = vpart::Tracer::Global();
  (*layer)["obs.rings"] =
      static_cast<double>(tracer.Snapshot().threads.size());
  JsonValue metrics;
  JsonValue summary;
  (*layer)["obs.snapshot_us"] =
      1e6 * TimeCalls(&spans, parent, "obs",
                      "MetricsToJson+TraceSummaryToJson", kSlowReps, [&] {
                        metrics = vpart::MetricsToJson(
                            vpart::MetricsRegistry::Global().Snapshot());
                        summary = vpart::TraceSummaryToJson(tracer.Summarize());
                      });
  (*layer)["obs.telemetry_bytes"] =
      static_cast<double>(metrics.Serialize().size() +
                          summary.Serialize().size());
}

void AddSolveCounters(const vpart::AdviseResponse& response,
                      std::map<std::string, double>* layer) {
  (*layer)["lp.pivots"] +=
      static_cast<double>(response.lp_stats.total_iterations());
  (*layer)["lp.factorizations"] +=
      static_cast<double>(response.lp_stats.factorizations);
  (*layer)["lp.busy_s"] += response.lp_stats.lp_seconds;
  (*layer)["mip.nodes"] += static_cast<double>(response.bnb_nodes);
}

void MarkIdle(std::map<std::string, double>* layer,
              const std::vector<std::string>& names) {
  for (const std::string& name : names) (*layer)[name] = 0.0;
}

}  // namespace perfbench

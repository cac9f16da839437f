// perfbench: one phase of one workload in a fresh process.
//
//   perfbench --workload proof|daemon|batch --seed N --seconds S
//             --phase setup|run|trace --out FILE [--refs FILE]
//             [--spans FILE] [--run-dir DIR] [--tiny] [--inject-fault]
//
// `setup` times everything before the timed phase (inputs, reference
// answers, start-up, priming, warm-up) and writes the references; `run`
// loads them, runs the timed phase untraced and writes the end-to-end
// figures; `trace` runs it again with the benchmark's own spans plus the
// standalone layer calls and writes the per-layer figures and the spans.
// perfbench/run.py drives the phases; see BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common.h"
#include "workload.h"

#ifndef PERFBENCH_WORKER_BINARY
#define PERFBENCH_WORKER_BINARY "vpart_cli"
#endif

namespace perfbench {
namespace {

struct Args {
  Options options;
  std::string phase;
  std::string out;
  std::string refs;
  std::string spans;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --phase setup|run|trace --out FILE [--refs FILE] "
               "[--spans FILE] [--run-dir DIR] [--tiny] [--inject-fault]\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  args.options.run_dir = ".";
  args.options.worker_binary = PERFBENCH_WORKER_BINARY;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.options.workload = value();
    } else if (flag == "--seed") {
      args.options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.options.seconds = std::atoi(value().c_str());
    } else if (flag == "--phase") {
      args.phase = value();
    } else if (flag == "--out") {
      args.out = value();
    } else if (flag == "--refs") {
      args.refs = value();
    } else if (flag == "--spans") {
      args.spans = value();
    } else if (flag == "--run-dir") {
      args.options.run_dir = value();
    } else if (flag == "--tiny") {
      args.options.tiny = true;
    } else if (flag == "--inject-fault") {
      args.options.inject_fault = true;
    } else {
      Usage("unknown argument " + flag);
    }
  }
  if (args.phase != "setup" && args.phase != "run" && args.phase != "trace") {
    Usage("--phase must be setup, run or trace");
  }
  if (args.out.empty()) Usage("--out is required");
  if (args.options.seconds < 1) Usage("--seconds must be >= 1");
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "proof") return MakeProofWorkload(options);
  if (options.workload == "daemon") return MakeDaemonWorkload(options);
  if (options.workload == "batch") return MakeBatchWorkload(options);
  Usage("unknown workload " + options.workload);
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  return static_cast<bool>(out);
}

[[noreturn]] void Die(const std::string& what, const vpart::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

/// lp and mip ratios, from the counters the workload summed.
void FinishRatios(std::map<std::string, double>* layer) {
  const double pivots = (*layer)["lp.pivots"];
  const double nodes = (*layer)["mip.nodes"];
  (*layer)["lp.us_per_pivot"] =
      pivots > 0 ? (*layer)["lp.busy_s"] / pivots * 1e6 : 0.0;
  (*layer)["mip.factorizations_per_node"] =
      nodes > 0 ? (*layer)["lp.factorizations"] / nodes : 0.0;
}

JsonValue EndToEnd(const Outcome& out) {
  JsonValue metrics = JsonValue::MakeObject();
  metrics.Set("throughput_rps",
              out.wall_s > 0 ? static_cast<double>(out.attempted) / out.wall_s
                             : 0.0);
  metrics.Set("latency_p50_ms", Median(out.latencies_s) * 1e3);
  metrics.Set("latency_p99_ms", Percentile(out.latencies_s, 99) * 1e3);
  metrics.Set("cpu_s", out.cpu_s);
  metrics.Set("peak_rss_mb", out.peak_rss_mb);
  metrics.Set("reduction_pct", out.ReductionPercent());
  return metrics;
}

int Main(int argc, char** argv) {
  const double process_start = Now();
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.options);
  vpart::Status status = workload->Prepare();
  if (!status.ok()) Die("prepare", status);

  JsonValue doc = JsonValue::MakeObject();
  if (args.phase == "setup") {
    vpart::StatusOr<JsonValue> refs = workload->ComputeReferences();
    if (!refs.ok()) Die("reference answers", refs.status());
    status = workload->StartUp();
    if (!status.ok()) Die("start-up", status);
    doc.Set("setup_s", Now() - process_start);
    doc.Set("references", std::move(*refs));
    return WriteFile(args.out, doc.Serialize()) ? 0 : 1;
  }

  std::ifstream refs_in(args.refs);
  std::stringstream refs_text;
  refs_text << refs_in.rdbuf();
  vpart::StatusOr<JsonValue> refs = JsonValue::Parse(refs_text.str());
  if (!refs.ok()) Die("reading " + args.refs, refs.status());
  const JsonValue* references = refs->Find("references");
  status = workload->LoadReferences(references != nullptr ? *references
                                                          : JsonValue());
  if (!status.ok()) Die("loading references", status);
  status = workload->StartUp();
  if (!status.ok()) Die("start-up", status);
  doc.Set("setup_s", Now() - process_start);

  const bool traced = args.phase == "trace";
  SpanLog spans;
  Outcome out;
  workload->RunTimed(traced ? &spans : nullptr, &out);
  if (traced) {
    workload->ProbeLayers(spans, &out);
    FinishRatios(&out.layer);
    JsonValue layer = JsonValue::MakeObject();
    for (const auto& [name, value] : out.layer) layer.Set(name, value);
    doc.Set("layer", std::move(layer));
    if (!args.spans.empty() &&
        !WriteFile(args.spans, spans.ToJson().Serialize())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
      return 1;
    }
  }
  doc.Set("wall_s", out.wall_s);
  doc.Set("samples", static_cast<long>(out.latencies_s.size()));
  doc.Set("attempted", out.attempted);
  doc.Set("failed", out.failed);
  JsonValue failures = JsonValue::MakeArray();
  for (const std::string& failure : out.failures) failures.Append(failure);
  doc.Set("failures", std::move(failures));
  doc.Set("work", out.work);
  doc.Set("metrics", EndToEnd(out));
  return WriteFile(args.out, doc.Serialize()) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

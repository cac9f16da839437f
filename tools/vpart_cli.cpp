// JSON request in -> JSON response out: drive any advisor scenario without
// recompiling. The request names an instance source (builtin tpcc, a named
// random class, a .vpi file, or inline text), a solver from the registry,
// and the per-solver option blocks; the response carries costs, the
// recommended layout, warnings, and (optionally) the progress-event stream.
//
//   $ ./build/vpart_cli request.json          # read request from a file
//   $ ./build/vpart_cli < request.json        # ... or from stdin
//   $ ./build/vpart_cli --trace out.json -    # ... plus a Chrome trace dump
//   $ ./build/vpart_cli --template            # print a starter request
//   $ ./build/vpart_cli --help
//
// Exit codes: 0 success, 1 solve failure, 2 bad usage/request.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/request_json.h"
#include "api/session.h"
#include "api/solver_registry.h"
#include "cost/cost_model_registry.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "engine/batch_advisor.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "util/string_util.h"

namespace {

using namespace vpart;

constexpr const char* kTemplate = R"({
  "instance": {"builtin": "tpcc"},
  "solver": "auto",
  "num_sites": 3,
  "num_threads": 1,
  "cost": {"p": 8, "lambda": 0.1},
  "cost_model": {"backend": "paper"},
  "time_limit_seconds": 5,
  "emit_partitioning": true,
  "emit_events": false,
  "obs": "basic"
})";

/// Parsed command line: optional flags plus at most one request source.
struct CliArgs {
  std::string request_path;  // empty or "-" = stdin
  std::string trace_path;    // --trace: Chrome Trace Event JSON dump
  std::string metrics_path;  // --metrics: Prometheus text dump
  std::string obs_text;      // --obs: overrides the request's "obs" key
  std::string serve_path;    // --serve: run as a daemon on this socket
  std::string worker_path;   // --worker: join a coordinator on this socket
  std::string socket_path;   // --socket: coordinator socket override
  int workers = 2;           // --workers: daemon/coordinator solve workers
  bool coordinator = false;  // --coordinator: multi-process distributed solve
  bool no_spawn = false;     // --no-spawn: wait for external --worker procs
  bool certify = false;      // --certify: run the SolutionCertifier
  bool help = false;
  bool print_template = false;
};

void PrintHelp() {
  std::printf(
      "usage: vpart_cli [options] [request.json]\n"
      "\n"
      "Reads a JSON advise request (from the given file, or stdin when no\n"
      "file is given), runs it through the solver registry, and prints a\n"
      "JSON response to stdout.\n"
      "\n"
      "options:\n"
      "  --trace <file.json>   dump the run's flight-recorder spans as\n"
      "                        Chrome Trace Event JSON (load the file in\n"
      "                        chrome://tracing or Perfetto). Implies\n"
      "                        --obs full unless --obs is given.\n"
      "  --metrics <file>      dump the metrics registry in Prometheus\n"
      "                        text exposition format after the solve\n"
      "  --obs off|basic|full  observability level; overrides the\n"
      "                        request's \"obs\" key\n"
      "  --serve <socket>      run as a persistent daemon on the given\n"
      "                        Unix domain socket instead of solving one\n"
      "                        request: framed JSON in, framed JSON out,\n"
      "                        with a canonical-fingerprint solution cache\n"
      "                        and cross-request warm starts. Stop with\n"
      "                        SIGINT/SIGTERM. See also vpart_client.\n"
      "  --workers <n>         daemon/coordinator solve workers (default 2)\n"
      "  --coordinator         advise a \"batch\": true request\n"
      "                        distributed: spawn --workers worker\n"
      "                        processes over a Unix socket and farm the\n"
      "                        schema's tables out to them (DESIGN.md\n"
      "                        \"Distributed layer\"). Any other request\n"
      "                        exits 2; ilp.bnb_threads parallelizes one\n"
      "                        solve\n"
      "  --socket <path>       coordinator socket path (default derived\n"
      "                        from the pid under /tmp)\n"
      "  --no-spawn            coordinator waits for externally started\n"
      "                        --worker processes instead of forking them\n"
      "  --worker <socket>     run as a distributed solve worker attached\n"
      "                        to the coordinator at <socket>; exits when\n"
      "                        the coordinator shuts down\n"
      "  --certify             re-verify the response with the independent\n"
      "                        solution certifier (partition structure,\n"
      "                        long-double cost recomputation, optimality\n"
      "                        bound audit) before printing it; a failed\n"
      "                        certification is a solve failure (exit 1).\n"
      "                        Same as \"certify\": true in the request.\n"
      "  --template            print a starter request and exit\n"
      "  --help                this text\n"
      "\n"
      "registered solvers: auto, %s\n"
      "registered cost models: %s\n"
      "\n"
      "request keys (see src/api/request_json.h for the full schema):\n"
      "  instance              {\"builtin\": \"tpcc\"} | {\"file\": ...} |\n"
      "                        {\"text\": ...} | {\"random\": \"rndAt8x15\"}\n"
      "  solver                registry name (default \"auto\")\n"
      "  num_sites/num_threads ints; cost {p, lambda}\n"
      "  cost_model            {\"backend\": \"paper\"|\"cacheline\"|\n"
      "                        \"disk_page\", per-backend option blocks}\n"
      "  time_limit_seconds    whole-request wall clock\n"
      "  batch                 true = one solve per table (whole schema)\n"
      "  emit_events           true = include the progress-event stream\n"
      "  obs                   \"off\"|\"basic\"|\"full\" span recording\n"
      "  certify               true = independent post-solve certification\n"
      "                        (response carries \"certified\": true)\n"
      "  ilp.bnb_threads       branch & bound worker threads for one\n"
      "                        exact solve\n"
      "  ilp.audit             \"off\"|\"cheap\"|\"full\" node-LP invariant\n"
      "                        audits; failures surface as\n"
      "                        telemetry.mip.audit_failures\n"
      "\n"
      "response telemetry: every document carries telemetry.mip — the\n"
      "branch & bound's node count and node-LP solve statistics\n"
      "(warm_starts vs cold_starts, dual/primal/phase1 iterations,\n"
      "factorizations vs ft_updates, bound_flips, se_resets, the\n"
      "refactor_* trigger counters, lp_seconds; all zero for\n"
      "pure-heuristic solves — field reference in README.md). With\n"
      "emit_events, ilp progress events carry the same counters under\n"
      "\"lp\" as they accumulate, each stamped with a monotonic \"seq\".\n"
      "Unless obs is \"off\", telemetry.metrics and telemetry.trace_summary\n"
      "carry the process metrics snapshot and per-span aggregates.\n",
      JoinStrings(SolverNames(), ", ").c_str(),
      JoinStrings(CostModelRegistry::Global().Names(), ", ").c_str());
}

std::string ReadAll(std::FILE* in) {
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    text.append(buffer, n);
  }
  return text;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), out);
  std::fclose(out);
  return written == content.size();
}

/// Dumps --trace / --metrics files after the solve; failures downgrade the
/// exit code to 1 but never discard the already-printed response.
int DumpObsFiles(const CliArgs& args) {
  int rc = 0;
  if (!args.trace_path.empty()) {
    const std::string trace =
        TraceToChromeJson(Tracer::Global().Snapshot());
    if (!WriteFile(args.trace_path, trace)) rc = 1;
  }
  if (!args.metrics_path.empty()) {
    const std::string text =
        MetricsToPrometheusText(MetricsRegistry::Global().Snapshot());
    if (!WriteFile(args.metrics_path, text)) rc = 1;
  }
  return rc;
}

int RunBatch(const Instance& instance, const CliRequest& cli) {
  BatchAdviseRequest batch;
  batch.request = cli.request;
  batch.request.num_threads = 1;  // concurrency goes across tables
  batch.table_threads = cli.request.num_threads;
  // The batch path has no AdviseSession; the CLI run is the session, so
  // give the trace the same root span the session path records.
  Tracer::Global().SetCurrentThreadName("advise-session");
  ScopedObsLevel scoped_obs(cli.request.obs);
  StatusOr<BatchAdvisorResult> advised = [&]() {
    Span session_span("session", "session");
    session_span.AddArg("instance", instance.name());
    session_span.AddArg("mode", std::string("batch"));
    return AdviseSchema(instance, batch);
  }();
  if (!advised.ok()) {
    std::fprintf(stderr, "batch advise failed: %s\n",
                 advised.status().ToString().c_str());
    return 1;
  }
  JsonValue out =
      BatchAdvisorResultToJson(instance, *advised, cli.emit_partitioning);
  if (cli.request.obs != ObsLevel::kOff) {
    JsonValue telemetry = JsonValue::MakeObject();
    telemetry.Set("metrics",
                  MetricsToJson(MetricsRegistry::Global().Snapshot()));
    telemetry.Set("trace_summary",
                  TraceSummaryToJson(Tracer::Global().Summarize()));
    out.Set("telemetry", std::move(telemetry));
  }
  std::printf("%s\n", out.Serialize(2).c_str());
  return 0;
}

std::atomic<bool> g_stop{false};
void HandleStopSignal(int) { g_stop.store(true); }

/// --serve: run the advisor daemon until SIGINT/SIGTERM. The signal
/// handler only sets a flag (AdviseServer::Shutdown takes locks, which
/// are off-limits inside a handler); the main thread polls it.
int RunServer(const CliArgs& args) {
  AdviseServerOptions options;
  options.socket_path = args.serve_path;
  options.num_workers = args.workers;
  AdviseServer server(options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "daemon start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::fprintf(stderr, "vpart daemon listening on %s (%d workers)\n",
               args.serve_path.c_str(), args.workers);
  while (!g_stop.load() && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Shutdown();
  const CacheStats stats = server.cache_stats();
  std::fprintf(stderr,
               "daemon stopped: %ld lookups, %ld exact hits, %ld shape "
               "hits, %ld misses\n",
               stats.lookups, stats.exact_hits, stats.shape_hits,
               stats.misses);
  return DumpObsFiles(args);
}

/// --worker: serve one coordinator until it says shutdown. Exit code 0 on
/// a clean close (coordinator shutdown), 1 on transport/protocol errors.
int RunWorker(const CliArgs& args) {
  const Status done = RunDistWorkerAt(args.worker_path);
  if (!done.ok()) {
    std::fprintf(stderr, "worker failed: %s\n", done.ToString().c_str());
    return 1;
  }
  return 0;
}

/// --coordinator: one distributed whole-schema batch. Spawns (or awaits)
/// workers, farms the tables out, and prints the document a local batch
/// prints.
int RunCoordinator(const CliArgs& args, const std::string& request_text) {
  StatusOr<CliRequest> cli = ParseCliRequest(request_text);
  if (!cli.ok()) {
    std::fprintf(stderr, "bad request: %s\n",
                 cli.status().ToString().c_str());
    return 2;
  }
  if (!cli->batch) {
    std::fprintf(stderr,
                 "bad request: --coordinator shards a \"batch\": true "
                 "request by table; parallelize one solve with \"ilp\": "
                 "{\"bnb_threads\": N} instead\n");
    return 2;
  }
  if (!args.obs_text.empty() &&
      !ParseObsLevel(args.obs_text, &cli->request.obs)) {
    std::fprintf(stderr, "--obs must be off, basic, or full (got %s)\n",
                 args.obs_text.c_str());
    return 2;
  }
  if (args.certify) cli->request.certify = true;
  StatusOr<Instance> instance = LoadCliInstance(*cli);
  if (!instance.ok()) {
    std::fprintf(stderr, "failed to load instance: %s\n",
                 instance.status().ToString().c_str());
    return 2;
  }
  DistCoordinator::Options options;
  options.socket_path = args.socket_path;
  options.num_workers = args.workers;
  options.spawn_workers = !args.no_spawn;
  StatusOr<std::unique_ptr<DistCoordinator>> coordinator =
      DistCoordinator::Start(options);
  if (!coordinator.ok()) {
    std::fprintf(stderr, "coordinator start failed: %s\n",
                 coordinator.status().ToString().c_str());
    return 1;
  }
  if (args.no_spawn) {
    std::fprintf(stderr,
                 "coordinator waiting for %d workers on %s\n"
                 "  (start each with: vpart_cli --worker %s)\n",
                 args.workers, (*coordinator)->socket_path().c_str(),
                 (*coordinator)->socket_path().c_str());
    if (!(*coordinator)->WaitForWorkers(args.workers, 300.0)) {
      std::fprintf(stderr, "workers did not attach within 300s\n");
      return 1;
    }
  }
  std::fprintf(stderr, "coordinator on %s: %d workers attached\n",
               (*coordinator)->socket_path().c_str(),
               (*coordinator)->usable_workers());
  BatchAdviseRequest batch;
  batch.request = cli->request;
  batch.request.num_threads = 1;  // concurrency goes across workers
  StatusOr<BatchAdvisorResult> advised =
      (*coordinator)->AdviseSchemaDistributed(*instance, batch);
  int rc = 0;
  if (!advised.ok()) {
    std::fprintf(stderr, "distributed batch advise failed: %s\n",
                 advised.status().ToString().c_str());
    rc = 1;
  } else {
    JsonValue out = BatchAdvisorResultToJson(*instance, *advised,
                                             cli->emit_partitioning);
    std::printf("%s\n", out.Serialize(2).c_str());
  }
  (*coordinator)->Shutdown();
  const int dump_rc = DumpObsFiles(args);
  return rc != 0 ? rc : dump_rc;
}

int Run(const CliArgs& args, const std::string& request_text) {
  StatusOr<CliRequest> cli = ParseCliRequest(request_text);
  if (!cli.ok()) {
    std::fprintf(stderr, "bad request: %s\n",
                 cli.status().ToString().c_str());
    return 2;
  }
  // --obs beats the request's "obs" key; --trace without an explicit --obs
  // raises to full so the dump actually contains the deep spans (B&B
  // nodes, LP solves) a trace reader comes for.
  if (!args.obs_text.empty()) {
    if (!ParseObsLevel(args.obs_text, &cli->request.obs)) {
      std::fprintf(stderr, "--obs must be off, basic, or full (got %s)\n",
                   args.obs_text.c_str());
      return 2;
    }
  } else if (!args.trace_path.empty()) {
    cli->request.obs = ObsLevel::kFull;
  }
  if (args.certify) cli->request.certify = true;
  StatusOr<Instance> instance = LoadCliInstance(*cli);
  if (!instance.ok()) {
    std::fprintf(stderr, "failed to load instance: %s\n",
                 instance.status().ToString().c_str());
    return 2;
  }
  if (cli->batch) {
    const int rc = RunBatch(*instance, *cli);
    const int dump_rc = DumpObsFiles(args);
    return rc != 0 ? rc : dump_rc;
  }

  // Run through an AdviseSession so the CLI exercises the same async path
  // a service embedding would, and can replay the recorded event stream.
  AdviseSession session(*instance, cli->request);
  Status started = session.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "session start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  const StatusOr<AdviseResponse>& response = session.Wait();
  if (!response.ok()) {
    std::fprintf(stderr, "advise failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  const std::vector<ProgressEvent> events =
      cli->emit_events ? session.Events() : std::vector<ProgressEvent>{};
  JsonValue out = AdviseResponseToJson(*instance, *response,
                                       cli->emit_partitioning, events);
  std::printf("%s\n", out.Serialize(2).c_str());
  return DumpObsFiles(args);
}

/// Parses argv; returns false (usage error) after printing a message.
bool ParseArgs(int argc, char** argv, CliArgs& args) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&](const char* flag, std::string* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value (try --help)\n", flag);
        return false;
      }
      *out = argv[++i];
      return true;
    };
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      args.help = true;
    } else if (std::strcmp(arg, "--template") == 0) {
      args.print_template = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      if (!next_value("--trace", &args.trace_path)) return false;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      if (!next_value("--metrics", &args.metrics_path)) return false;
    } else if (std::strcmp(arg, "--obs") == 0) {
      if (!next_value("--obs", &args.obs_text)) return false;
    } else if (std::strcmp(arg, "--serve") == 0) {
      if (!next_value("--serve", &args.serve_path)) return false;
    } else if (std::strcmp(arg, "--worker") == 0) {
      if (!next_value("--worker", &args.worker_path)) return false;
    } else if (std::strcmp(arg, "--socket") == 0) {
      if (!next_value("--socket", &args.socket_path)) return false;
    } else if (std::strcmp(arg, "--coordinator") == 0) {
      args.coordinator = true;
    } else if (std::strcmp(arg, "--no-spawn") == 0) {
      args.no_spawn = true;
    } else if (std::strcmp(arg, "--workers") == 0) {
      std::string value;
      if (!next_value("--workers", &value)) return false;
      args.workers = std::atoi(value.c_str());
      if (args.workers <= 0) {
        std::fprintf(stderr, "--workers must be positive\n");
        return false;
      }
    } else if (std::strcmp(arg, "--certify") == 0) {
      args.certify = true;
    } else if (arg[0] == '-' && std::strcmp(arg, "-") != 0) {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg);
      return false;
    } else {
      if (!args.request_path.empty()) {
        std::fprintf(stderr, "too many arguments (try --help)\n");
        return false;
      }
      args.request_path = arg;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, args)) return 2;
  if (args.help) {
    PrintHelp();
    return 0;
  }
  if (args.print_template) {
    std::printf("%s\n", kTemplate);
    return 0;
  }
  if (!args.serve_path.empty()) {
    return RunServer(args);
  }
  if (!args.worker_path.empty()) {
    return RunWorker(args);
  }
  std::string request_text;
  if (args.request_path.empty() || args.request_path == "-") {
    request_text = ReadAll(stdin);
  } else {
    std::FILE* in = std::fopen(args.request_path.c_str(), "r");
    if (in == nullptr) {
      std::fprintf(stderr, "cannot read %s\n", args.request_path.c_str());
      return 2;
    }
    request_text = ReadAll(in);
    std::fclose(in);
  }
  if (args.coordinator) {
    return RunCoordinator(args, request_text);
  }
  return Run(args, request_text);
}

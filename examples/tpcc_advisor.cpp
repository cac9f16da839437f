// Partitioning advisor for the TPC-C workload — the paper's flagship
// experiment as a runnable tool, driven through the service API
// (AdviseSession + SolverRegistry).
//
//   $ ./build/tpcc_advisor [sites] [p] [lambda] [solver] [threads]
//
//   sites      number of sites, >= 1 (default 3)
//   p          network penalty factor, >= 0 (default 8; 0 = local placement)
//   lambda     load-balancing weight in [0,1] (default 0.1)
//   solver     auto | ilp | sa | exhaustive | incremental | portfolio |
//              batch (default auto). `portfolio` races ILP/SA/incremental
//              concurrently on one whole-schema solve; `batch` advises all
//              nine tables concurrently, one solve per table (the paper's
//              per-table setup).
//   threads    worker threads, >= 1 (default 1; auto picks the portfolio
//              when > 1)
//
// Incumbent improvements stream to stderr while the solve runs; the final
// Table-4 style site layout plus the cost breakdown print to stdout.

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>

#include "api/session.h"
#include "api/solver_registry.h"
#include "cost/cost_model.h"
#include "engine/batch_advisor.h"
#include "instances/tpcc.h"
#include "report/partition_report.h"
#include "util/string_util.h"

namespace {

using namespace vpart;

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: tpcc_advisor [sites] [p] [lambda] [solver] "
               "[threads]\n"
               "  sites    >= 1 (default 3)\n"
               "  p        >= 0 (default 8)\n"
               "  lambda   in [0,1] (default 0.1)\n"
               "  solver   auto | %s | batch (default auto)\n"
               "  threads  >= 1 (default 1)\n",
               JoinStrings(SolverRegistry::Global().Names(), " | ").c_str());
}

/// Strict positional-int parse: rejects garbage, enforces a minimum
/// (std::atoi would silently turn "abc" or "-3" into nonsense).
bool ParseArgInt(const char* arg, const char* name, int min_value, int* out) {
  if (!ParseInt(arg, out) || *out < min_value) {
    std::fprintf(stderr, "invalid %s '%s': need an integer >= %d\n", name,
                 arg, min_value);
    return false;
  }
  return true;
}

bool ParseArgDouble(const char* arg, const char* name, double min_value,
                    double max_value, double* out) {
  if (!ParseDouble(arg, out) || *out < min_value || *out > max_value) {
    std::fprintf(stderr, "invalid %s '%s': need a number in [%g, %g]\n",
                 name, arg, min_value, max_value);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    }
    if (argv[i][0] == '-' &&
        !std::isdigit(static_cast<unsigned char>(argv[i][1]))) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      PrintUsage(stderr);
      return 2;
    }
  }
  if (argc > 6) {
    std::fprintf(stderr, "too many arguments\n");
    PrintUsage(stderr);
    return 2;
  }

  AdviseRequest request;
  request.num_sites = 3;
  request.cost.p = 8.0;
  request.cost.lambda = 0.1;
  bool batch = false;
  if (argc > 1 &&
      !ParseArgInt(argv[1], "sites", 1, &request.num_sites)) {
    return 2;
  }
  if (argc > 2 &&
      !ParseArgDouble(argv[2], "p", 0.0, 1e9, &request.cost.p)) {
    return 2;
  }
  if (argc > 3 &&
      !ParseArgDouble(argv[3], "lambda", 0.0, 1.0, &request.cost.lambda)) {
    return 2;
  }
  if (argc > 4) {
    const std::string name = argv[4];
    if (name == "batch") {
      batch = true;
    } else if (name == kSolverAuto ||
               SolverRegistry::Global().Contains(name)) {
      request.solver = name;
    } else {
      std::fprintf(stderr, "unknown solver: %s (available: auto, %s, "
                           "batch)\n",
                   name.c_str(),
                   JoinStrings(SolverRegistry::Global().Names(), ", ")
                       .c_str());
      return 2;
    }
  }
  int threads = 1;
  if (argc > 5 && !ParseArgInt(argv[5], "threads", 1, &threads)) return 2;
  request.num_threads = threads;

  Instance tpcc = MakeTpccInstance();
  std::printf("TPC-C v5: %d tables, %d attributes, %d transactions, "
              "%d queries\n",
              tpcc.schema().num_tables(), tpcc.num_attributes(),
              tpcc.num_transactions(), tpcc.num_queries());
  std::printf("solving for %d sites, p = %g, lambda = %g, %d thread(s) "
              "...\n\n",
              request.num_sites, request.cost.p, request.cost.lambda,
              request.num_threads);

  if (batch) {
    // Whole-schema batch mode: one independent solve per table, `threads`
    // tables advised at a time.
    BatchAdviseRequest batch_request;
    batch_request.request = request;
    batch_request.request.num_threads = 1;  // concurrency across tables
    batch_request.table_threads = request.num_threads;
    auto advised = AdviseSchema(tpcc, batch_request);
    if (!advised.ok()) {
      std::fprintf(stderr, "batch advisor failed: %s\n",
                   advised.status().ToString().c_str());
      return 1;
    }
    std::printf("%-12s %10s %10s %8s  %s\n", "table", "cost",
                "1-site", "redux", "algorithm");
    for (const TableAdvice& advice : advised->tables) {
      std::printf("%-12s %10.0f %10.0f %7.1f%%  %s\n",
                  advice.table_name.c_str(), advice.result.cost,
                  advice.result.single_site_cost,
                  advice.result.reduction_percent,
                  advice.result.algorithm_used.c_str());
    }
    const AdvisorResult& combined = advised->combined;
    std::printf("\n%s", RenderPartitionTable(tpcc, combined.partitioning)
                            .c_str());
    std::printf("schema-wide: cost %.0f vs single-site %.0f "
                "(%.1f%% reduction)%s\n",
                combined.cost, combined.single_site_cost,
                combined.reduction_percent,
                combined.proven_optimal ? ", proven optimal" : "");
    std::printf("%s advised %zu tables on %d thread(s) in %.2fs\n",
                combined.algorithm_used.c_str(), advised->tables.size(),
                advised->threads_used, advised->seconds);
    return 0;
  }

  // Async session: incumbents stream to stderr as the solvers find them.
  AdviseSession session(tpcc, request);
  session.OnIncumbent([](const IncumbentEvent& event) {
    std::fprintf(stderr, "  [%6.2fs] %-11s incumbent cost %.0f\n",
                 event.elapsed, event.source.c_str(), event.cost);
  });
  Status started = session.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "session start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  const StatusOr<AdviseResponse>& response = session.Wait();
  if (!response.ok()) {
    std::fprintf(stderr, "advisor failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  for (const std::string& warning : response->warnings) {
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
  }

  const AdvisorResult& result = response->result;
  std::printf("%s", RenderPartitionTable(tpcc, result.partitioning).c_str());
  CostModel model(&tpcc, request.cost);
  std::printf("%s\n", RenderPartitionSummary(model, result.partitioning)
                          .c_str());
  std::printf("solver %s (%s) solved in %.2fs%s\n",
              response->solver_used.c_str(), result.algorithm_used.c_str(),
              result.seconds,
              result.proven_optimal ? " (proven optimal)" : "");
  std::printf("cost reduction vs single site: %.1f%% (paper: 37%%)\n",
              result.reduction_percent);
  return 0;
}

// Ablation benches for the design choices DESIGN.md calls out. Each block
// toggles one mechanism and reports its effect on the ILP solve (nodes,
// time, proved cost) or the SA solve (cost) for TPC-C and one mid-size
// random instance:
//
//   1. §4 attribute grouping ("reasonable cuts") on/off,
//   2. the first-use site-symmetry rows (x[t][s] = 0 for s > t, and
//      x[t][s] <= Σ_{t'<t} x[t'][s-1]) on/off,
//   3. direction-aware u-linking rows vs the full textbook linearization,
//   4. SA warm-start incumbent for branch & bound on/off,
//   5. SA neighborhood size (the paper's 10% vs 2% and 30%).

#include <cstdio>

#include "bench_util.h"
#include "cost/cost_model.h"
#include "solver/formulation.h"

namespace vpart::bench {
namespace {

struct IlpOutcome {
  std::string cost;
  long nodes = 0;
  double seconds = 0;
  int rows = 0;
  int cols = 0;
};

IlpOutcome SolveVariant(const Instance& instance, bool grouping,
                        bool symmetry, bool directional, bool warm,
                        int sites, double time_limit) {
  const Instance* solve_instance = &instance;
  StatusOr<AttributeGrouping> groups = BuildAttributeGrouping(instance);
  if (grouping && groups.ok()) solve_instance = &groups->reduced;

  CostModel model(solve_instance, {.p = 8, .lambda = 0.1});
  IlpSolverOptions options;
  options.formulation.num_sites = sites;
  options.formulation.break_symmetry = symmetry;
  options.formulation.direction_aware_links = directional;
  options.mip.relative_gap = 0.001;
  options.mip.time_limit_seconds = time_limit;

  SaResult sa;
  if (warm) {
    SaOptions sa_options;
    sa_options.seed = 5;
    sa_options.time_limit_seconds = std::min(0.25, time_limit / 10);
    sa = SolveWithSa(model, sites, sa_options);
    options.warm_start = &sa.partitioning;
  }
  IlpFormulation shape = BuildIlpFormulation(model, options.formulation);
  IlpSolveResult result = SolveWithIlp(model, options);

  IlpOutcome out;
  out.nodes = result.proof.nodes;
  out.seconds = result.seconds;
  out.rows = shape.model.num_constraints();
  out.cols = shape.model.num_variables();
  if (result.ok()) {
    // Evaluate on the original instance for comparability.
    CostModel full(&instance, {.p = 8, .lambda = 0.1});
    Partitioning p = grouping && groups.ok()
                         ? groups->ExpandPartitioning(*result.partitioning)
                         : *result.partitioning;
    out.cost = FormatCostCell(true, result.timed_out(), full.Objective(p),
                              1e3);
  } else {
    out.cost = "t/o";
  }
  return out;
}

void RunIlpAblations(const char* label, const Instance& instance, int sites,
                     double time_limit) {
  struct Variant {
    const char* name;
    bool grouping, symmetry, directional, warm;
  };
  const Variant variants[] = {
      {"full (baseline)", true, true, true, true},
      {"no attribute grouping", false, true, true, true},
      {"no first-use rows", true, false, true, true},
      {"textbook 3-row linking", true, true, false, true},
      {"cold start (no SA incumbent)", true, true, true, false},
  };
  std::printf("ILP ablations on %s (|S| = %d, limit %.0fs)\n", label, sites,
              time_limit);
  TablePrinter table({"variant", "rows", "cols", "nodes", "t(s)", "cost"});
  for (const Variant& v : variants) {
    IlpOutcome out = SolveVariant(instance, v.grouping, v.symmetry,
                                  v.directional, v.warm, sites, time_limit);
    table.AddRow({v.name, StrFormat("%d", out.rows),
                  StrFormat("%d", out.cols), StrFormat("%ld", out.nodes),
                  Seconds(out.seconds), out.cost});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void RunSaNeighborhoodAblation(const char* label, const Instance& instance,
                               int sites) {
  std::printf("SA neighborhood-size ablation on %s (paper uses 10%%)\n",
              label);
  TablePrinter table({"move fraction", "cost", "iterations", "t(s)"});
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  for (double fraction : {0.02, 0.10, 0.30}) {
    SaOptions options;
    options.seed = 7;
    options.move_fraction = fraction;
    options.time_limit_seconds = SaTimeLimit();
    SaResult result = SolveWithSa(model, sites, options);
    table.AddRow({StrFormat("%.0f%%", fraction * 100),
                  FormatCost(result.cost, 1e3),
                  StrFormat("%ld", result.iterations),
                  Seconds(result.seconds)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace vpart::bench

int main() {
  using namespace vpart;
  using namespace vpart::bench;
  Instance tpcc = MakeTpccInstance();
  RunIlpAblations("TPC-C v5", tpcc, 3, QpTimeLimit(10.0));
  auto random_instance = MakeNamedRandomInstance("rndBt8x15");
  if (random_instance.ok()) {
    RunIlpAblations("rndBt8x15", random_instance.value(), 2,
                    QpTimeLimit(10.0));
    RunSaNeighborhoodAblation("rndBt8x15", random_instance.value(), 2);
  }
  RunSaNeighborhoodAblation("TPC-C v5", tpcc, 3);
  return 0;
}

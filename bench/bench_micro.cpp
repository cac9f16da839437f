// Micro-benchmarks (google-benchmark) for the building blocks: cost-model
// evaluation, closed-form placement, SA iterations, LP solves, instance
// generation and the §4 grouping reduction.

#include <benchmark/benchmark.h>

#include "api/advise.h"
#include "bench_util.h"
#include "cost/cost_model.h"
#include "engine/batch_advisor.h"
#include "lp/simplex.h"
#include "solver/formulation.h"
#include "util/rng.h"

namespace vpart {
namespace {

Instance& Tpcc() {
  static Instance* instance = new Instance(MakeTpccInstance());
  return *instance;
}

Instance& BigRandom() {
  static Instance* instance = [] {
    RandomInstanceParams params;
    params.num_transactions = 100;
    params.num_tables = 32;
    params.max_attributes_per_table = 30;
    params.seed = 7;
    return new Instance(MakeRandomInstance(params));
  }();
  return *instance;
}

Partitioning RandomPartitioning(const Instance& instance, int sites,
                                uint64_t seed) {
  Rng rng(seed);
  Partitioning p(instance.num_transactions(), instance.num_attributes(),
                 sites);
  for (int t = 0; t < instance.num_transactions(); ++t) {
    p.AssignTransaction(t, static_cast<int>(rng.NextBounded(sites)));
  }
  CostModel model(&instance, {});
  ComputeOptimalY(model, p);
  return p;
}

void BM_CostModelBuild(benchmark::State& state) {
  const Instance& instance = state.range(0) == 0 ? Tpcc() : BigRandom();
  for (auto _ : state) {
    CostModel model(&instance, {.p = 8, .lambda = 0.1});
    benchmark::DoNotOptimize(model.c2(0));
  }
}
BENCHMARK(BM_CostModelBuild)->Arg(0)->Arg(1);

void BM_ObjectiveEvaluation(benchmark::State& state) {
  const Instance& instance = state.range(0) == 0 ? Tpcc() : BigRandom();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  Partitioning p = RandomPartitioning(instance, 3, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Objective(p));
  }
}
BENCHMARK(BM_ObjectiveEvaluation)->Arg(0)->Arg(1);

void BM_ScalarizedObjective(benchmark::State& state) {
  const Instance& instance = state.range(0) == 0 ? Tpcc() : BigRandom();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  Partitioning p = RandomPartitioning(instance, 3, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ScalarizedObjective(p));
  }
}
BENCHMARK(BM_ScalarizedObjective)->Arg(0)->Arg(1);

void BM_ComputeOptimalY(benchmark::State& state) {
  const Instance& instance = state.range(0) == 0 ? Tpcc() : BigRandom();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  Partitioning p = RandomPartitioning(instance, 3, 42);
  for (auto _ : state) {
    ComputeOptimalY(model, p);
    benchmark::DoNotOptimize(p.ReplicaCount(0));
  }
}
BENCHMARK(BM_ComputeOptimalY)->Arg(0)->Arg(1);

void BM_ComputeOptimalX(benchmark::State& state) {
  const Instance& instance = state.range(0) == 0 ? Tpcc() : BigRandom();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  const Partitioning start = RandomPartitioning(instance, 3, 42);
  Partitioning p = start;
  for (auto _ : state) {
    p = start;  // re-derive x from the same y every time
    ComputeOptimalX(model, p);
    benchmark::DoNotOptimize(p.SiteOfTransaction(0));
  }
}
BENCHMARK(BM_ComputeOptimalX)->Arg(0)->Arg(1);

void BM_SaAnnealTpcc(benchmark::State& state) {
  const Instance& instance = Tpcc();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  for (auto _ : state) {
    SaOptions options;
    options.seed = 11;
    options.inner_iterations = 10;
    options.stale_rounds_limit = 2;
    benchmark::DoNotOptimize(SolveWithSa(model, 3, options).cost);
  }
}
BENCHMARK(BM_SaAnnealTpcc)->Unit(benchmark::kMillisecond);

// One per-table solve of perfbench `batch`: the first table of a Table-1
// 100x100 schema after §4 grouping, annealed at 3 sites with a request's
// default SA settings (seed, restarts, replication; no time limit).
void BM_SaAnnealBatchTable(benchmark::State& state) {
  static const Instance* table = [] {
    StatusOr<std::vector<TableSubinstance>> tables =
        SplitInstanceByTable(MakeRandomInstance(Table1DefaultParams(100, 1)));
    auto grouping = BuildAttributeGrouping(tables->front().instance);
    return new Instance(grouping->reduced);
  }();
  const AdviseRequest defaults;
  CostModel model(table, defaults.cost);
  SaOptions options;
  options.seed = defaults.seed;
  options.max_restarts = defaults.sa.max_restarts;
  options.allow_replication = defaults.allow_replication;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveWithSa(model, 3, options).cost);
  }
}
BENCHMARK(BM_SaAnnealBatchTable)->Unit(benchmark::kMillisecond);

void BM_SimplexTpccRootLp(benchmark::State& state) {
  Instance& instance = Tpcc();
  auto grouping = BuildAttributeGrouping(instance);
  CostModel model(&grouping->reduced, {.p = 8, .lambda = 0.1});
  FormulationOptions options;
  options.num_sites = 3;
  IlpFormulation f = BuildIlpFormulation(model, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveLp(f.model).objective);
  }
}
BENCHMARK(BM_SimplexTpccRootLp)->Unit(benchmark::kMillisecond);

void BM_InstanceGeneration(benchmark::State& state) {
  RandomInstanceParams params;
  params.num_transactions = static_cast<int>(state.range(0));
  params.num_tables = static_cast<int>(state.range(0));
  params.seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeRandomInstance(params).num_attributes());
  }
}
BENCHMARK(BM_InstanceGeneration)->Arg(20)->Arg(100);

void BM_AttributeGrouping(benchmark::State& state) {
  const Instance& instance = state.range(0) == 0 ? Tpcc() : BigRandom();
  for (auto _ : state) {
    auto grouping = BuildAttributeGrouping(instance);
    benchmark::DoNotOptimize(grouping->num_groups());
  }
}
BENCHMARK(BM_AttributeGrouping)->Arg(0)->Arg(1);

}  // namespace
}  // namespace vpart

BENCHMARK_MAIN();

#include "api/solver_registry.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "engine/portfolio.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/exhaustive_solver.h"
#include "solver/ilp_solver.h"
#include "solver/incremental_solver.h"
#include "solver/sa_solver.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace vpart {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// The solve functions. Each reads its own option block, threads the
// context token through the underlying algorithm, and translates its
// native progress hooks into the api event stream.
// ---------------------------------------------------------------------------

StatusOr<SolverRun> RunExhaustive(const CostCoefficients& cost_model,
                                  const AdviseRequest& request,
                                  const SolveContext& ctx) {
  Stopwatch watch;
  ExhaustiveOptions ex;
  ex.num_sites = request.num_sites;
  ex.allow_replication = request.allow_replication;
  ex.max_candidates = request.exhaustive.max_candidates;
  // The raw flag alone would miss the deadline (expiry only latches it
  // when someone polls cancelled()); pass the remaining budget too.
  ex.time_limit_seconds = ctx.token.SolverBudgetSeconds();
  ex.cancel_flag = ctx.token.flag();
  std::optional<Span> enum_span;
  enum_span.emplace("exhaustive_enumeration", "solver");
  ExhaustiveResult result = SolveExhaustively(cost_model, ex);
  enum_span->AddArg("candidates", result.candidates);
  enum_span->AddArg("exhausted", result.exhausted ? "true" : "false");
  enum_span.reset();
  static Counter& candidates_total = MetricsRegistry::Global().GetCounter(
      "vpart_exhaustive_candidates_total",
      "Assignments examined by exhaustive enumeration");
  candidates_total.Add(result.candidates);
  if (!result.partitioning.has_value()) {
    if (!result.exhausted) {
      // Cancelled/expired before the first candidate: honor the
      // best-incumbent-so-far contract with the always-feasible
      // single-site layout instead of misreporting infeasibility.
      result.partitioning = SingleSiteBaseline(cost_model.instance(),
                                               request.num_sites);
      result.cost = cost_model.Objective(*result.partitioning);
      result.scalarized =
          cost_model.ScalarizedObjective(*result.partitioning);
    } else {
      return InfeasibleError("exhaustive enumeration found no solution");
    }
  }
  if (ctx.incumbent) {
    IncumbentEvent event;
    event.partitioning = *result.partitioning;
    event.cost = result.cost;
    event.scalarized = result.scalarized;
    event.source = kSolverExhaustive;
    event.elapsed = watch.ElapsedSeconds();
    ctx.incumbent(event);
  }
  if (ctx.progress) {
    ProgressEvent event;
    event.phase = kSolverExhaustive;
    event.elapsed = watch.ElapsedSeconds();
    event.best_cost = result.cost;
    event.bound = result.exhausted ? result.scalarized : -kInf;
    event.gap = result.exhausted ? 0.0 : 100.0;
    event.detail = result.candidates;
    ctx.progress(event);
  }
  SolverRun run;
  run.partitioning = std::move(*result.partitioning);
  run.algorithm = kSolverExhaustive;
  run.proven_optimal = result.exact;
  // The proof is by complete enumeration, not a dual bound.
  run.proof.search_exhausted = result.exact;
  return run;
}

StatusOr<SolverRun> RunSa(const CostCoefficients& cost_model,
                          const AdviseRequest& request,
                          const SolveContext& ctx) {
  SaOptions sa;
  sa.seed = request.seed;
  sa.allow_replication = request.allow_replication;
  sa.max_restarts = request.sa.max_restarts;
  sa.time_limit_seconds = ctx.token.SolverBudgetSeconds();
  sa.cancel_flag = ctx.token.flag();
  double best_seen = kInf;
  // Each SaProgress tick marks the end of one anneal: turn the interval
  // since the previous tick into an "sa_restart" span so restarts show as
  // consecutive blocks on this thread's trace lane.
  Tracer& tracer = Tracer::Global();
  int64_t restart_start_us = tracer.NowMicros();
  static Counter& restarts_total = MetricsRegistry::Global().GetCounter(
      "vpart_sa_restarts_total", "SA anneals completed");
  sa.progress = [&](const SaProgress& progress) {
    restarts_total.Increment();
    if (tracer.Enabled(ObsLevel::kBasic)) {
      const int64_t now_us = tracer.NowMicros();
      tracer.RecordComplete("sa_restart", "solver", restart_start_us,
                            now_us - restart_start_us,
                            {{"restart", std::to_string(progress.restart)}});
      restart_start_us = now_us;
    }
    if (ctx.incumbent && progress.best_scalarized < best_seen &&
        progress.best != nullptr) {
      best_seen = progress.best_scalarized;
      IncumbentEvent event;
      event.partitioning = *progress.best;
      event.cost = progress.best_cost;
      event.scalarized = progress.best_scalarized;
      event.source = kSolverSa;
      event.elapsed = progress.seconds;
      ctx.incumbent(event);
    }
    if (ctx.progress) {
      ProgressEvent event;
      event.phase = kSolverSa;
      event.elapsed = progress.seconds;
      event.best_cost = progress.best_cost;
      event.bound = -kInf;
      event.gap = 100.0;
      event.detail = progress.restart;
      ctx.progress(event);
    }
  };
  SaResult result = SolveWithSa(cost_model, request.num_sites, sa);
  SolverRun run;
  run.partitioning = std::move(result.partitioning);
  run.algorithm = kSolverSa;
  return run;
}

StatusOr<SolverRun> RunIlp(const CostCoefficients& cost_model,
                           const AdviseRequest& request,
                           const SolveContext& ctx) {
  IlpSolverOptions ilp;
  ilp.formulation.num_sites = request.num_sites;
  ilp.formulation.allow_replication = request.allow_replication;
  ilp.latency_penalty = request.latency_penalty;
  ilp.mip.time_limit_seconds = ctx.token.SolverBudgetSeconds();
  ilp.mip.relative_gap = request.ilp.mip_gap;
  ilp.mip.enable_dive = request.ilp.enable_dive;
  ilp.mip.num_threads = request.ilp.bnb_threads > 0
                            ? request.ilp.bnb_threads
                            : std::max(1, request.num_threads);
  ilp.mip.cancel_flag = ctx.token.flag();
  ilp.mip.lp_options.audit_level = request.ilp.lp_audit;
  // Cross-request root-basis seed (ilp_solver skips it under latency).
  ilp.root_basis = request.warm.root_basis;

  // Track the cost of the latest decoded incumbent so tree-level ticks
  // (which only know the scalarized objective) can report objective (4).
  std::atomic<double> last_cost{kInf};
  if (ctx.incumbent) {
    ilp.on_incumbent = [&](const Partitioning& p, double scalarized,
                           double cost) {
      last_cost.store(cost, std::memory_order_relaxed);
      IncumbentEvent event;
      event.partitioning = p;
      event.cost = cost;
      event.scalarized = scalarized;
      event.source = kSolverIlp;
      ctx.incumbent(event);
    };
  }
  if (ctx.progress) {
    ilp.mip.progress = [&](const MipProgress& progress) {
      ProgressEvent event;
      event.phase = kSolverIlp;
      event.elapsed = progress.seconds;
      event.best_cost = last_cost.load(std::memory_order_relaxed);
      event.bound = progress.best_bound;
      event.gap = progress.has_incumbent
                      ? GapPercent(progress.incumbent_objective,
                                   progress.best_bound)
                      : 100.0;
      event.detail = progress.nodes;
      event.lp = progress.lp_stats;
      ctx.progress(event);
    };
  }

  // A cached cross-request incumbent (serve layer, shape-level cache
  // hit) replaces the internal SA warm start entirely: it is already a
  // full solution of a structurally identical instance, so burning the
  // warm-start budget on a fresh anneal would only duplicate it.
  const Partitioning* seed_incumbent = nullptr;
  if (request.warm.incumbent != nullptr &&
      ValidatePartitioning(cost_model.instance(), *request.warm.incumbent,
                           !request.allow_replication)
          .ok()) {
    seed_incumbent = request.warm.incumbent.get();
    ilp.warm_start = seed_incumbent;
  }

  // Seed the branch & bound with a quick SA incumbent (the legacy path's
  // warm start; dramatically improves pruning on large models).
  SaResult warm;
  const bool have_warm =
      seed_incumbent == nullptr && request.ilp.warm_start_seconds > 0;
  if (have_warm) {
    SaOptions warm_sa;
    warm_sa.seed = request.seed;
    warm_sa.allow_replication = request.allow_replication;
    // With an unlimited request the warm start still gets its own cap —
    // it must stay the quick seeding pass, not an open-ended anneal.
    warm_sa.time_limit_seconds =
        request.time_limit_seconds > 0
            ? std::min(request.ilp.warm_start_seconds,
                       request.time_limit_seconds / 4)
            : request.ilp.warm_start_seconds;
    warm_sa.cancel_flag = ctx.token.flag();
    Span warm_span("ilp_warm_start", "solver");
    warm = SolveWithSa(cost_model, request.num_sites, warm_sa);
    ilp.warm_start = &warm.partitioning;
  }

  std::optional<Span> bnb_span;
  bnb_span.emplace("branch_and_bound", "solver");
  IlpSolveResult result = SolveWithIlp(cost_model, ilp);
  bnb_span->AddArg("nodes", result.proof.nodes);
  bnb_span->AddArg("lp_solves", result.proof.lp_stats.lp_solves);
  bnb_span.reset();
  SolverRun run;
  run.proof = std::move(result.proof);
  if (result.ok()) {
    run.partitioning = std::move(*result.partitioning);
    run.algorithm = kSolverIlp;
    run.proven_optimal = result.status == MipStatus::kOptimal;
  } else if (seed_incumbent != nullptr) {
    run.partitioning = *seed_incumbent;
    run.algorithm = "ilp(timeout)->seed";
  } else if (have_warm) {
    run.partitioning = std::move(warm.partitioning);
    run.algorithm = "ilp(timeout)->sa";
  } else {
    return DeadlineExceededError(
        "branch & bound found no incumbent within its budget "
        "(warm starting was disabled)");
  }
  return run;
}

StatusOr<SolverRun> RunIncremental(const CostCoefficients& cost_model,
                                   const AdviseRequest& request,
                                   const SolveContext& ctx) {
  IncrementalOptions inc;
  inc.initial_fraction = request.incremental.initial_fraction;
  inc.batches = request.incremental.batches;
  inc.sa.seed = request.seed;
  inc.sa.allow_replication = request.allow_replication;
  inc.sa.time_limit_seconds = ctx.token.SolverBudgetSeconds() / 2;
  inc.sa.cancel_flag = ctx.token.flag();
  // As in RunSa: a progress tick closes one growth round, so the
  // inter-tick interval becomes an "incremental_round" span.
  Tracer& tracer = Tracer::Global();
  int64_t round_start_us = tracer.NowMicros();
  static Counter& rounds_total = MetricsRegistry::Global().GetCounter(
      "vpart_incremental_rounds_total",
      "Incremental fold-in rounds completed");
  inc.progress = [&](const IncrementalProgress& progress) {
    rounds_total.Increment();
    if (tracer.Enabled(ObsLevel::kBasic)) {
      const int64_t now_us = tracer.NowMicros();
      tracer.RecordComplete(
          "incremental_round", "solver", round_start_us,
          now_us - round_start_us,
          {{"round", std::to_string(progress.round)},
           {"covered", std::to_string(progress.covered) + "/" +
                           std::to_string(progress.total)}});
      round_start_us = now_us;
    }
    if (!ctx.progress) return;
    ProgressEvent event;
    event.phase = kSolverIncremental;
    event.elapsed = progress.seconds;
    // Intermediate rounds cover a transaction prefix, not a full
    // incumbent; the final solution arrives as an incumbent event.
    event.best_cost = kInf;
    event.bound = -kInf;
    event.gap = 100.0;
    event.detail = progress.round;
    ctx.progress(event);
  };
  SaResult result =
      SolveIncrementally(cost_model, request.num_sites, inc);
  if (ctx.incumbent) {
    IncumbentEvent event;
    event.partitioning = result.partitioning;
    event.cost = result.cost;
    event.scalarized = result.scalarized;
    event.source = kSolverIncremental;
    event.elapsed = result.seconds;
    ctx.incumbent(event);
  }
  SolverRun run;
  run.partitioning = std::move(result.partitioning);
  run.algorithm = kSolverIncremental;
  return run;
}

StatusOr<SolverRun> RunPortfolio(const CostCoefficients& cost_model,
                                 const AdviseRequest& request,
                                 const SolveContext& ctx) {
  PortfolioOptions portfolio;
  portfolio.num_sites = request.num_sites;
  portfolio.allow_replication = request.allow_replication;
  portfolio.time_limit_seconds = request.time_limit_seconds;
  portfolio.relative_gap = request.ilp.mip_gap;
  portfolio.seed = request.seed;
  portfolio.num_threads = request.num_threads;
  portfolio.bnb_threads = request.ilp.bnb_threads;
  portfolio.sa_slice_seconds = request.sa.slice_seconds;
  portfolio.run_ilp = request.portfolio.run_ilp;
  portfolio.run_sa = request.portfolio.run_sa;
  portfolio.run_incremental = request.portfolio.run_incremental;
  portfolio.lp_audit = request.ilp.lp_audit;
  portfolio.cancel_token = &ctx.token;
  // Cross-request seeds: the incumbent is published into the shared
  // best before any lane starts; the basis seeds the ILP lane's root.
  portfolio.initial_incumbent = request.warm.incumbent;
  portfolio.root_basis = request.warm.root_basis;
  std::atomic<long> publications{0};
  if (ctx.incumbent || ctx.progress) {
    portfolio.on_incumbent = [&](const Partitioning& p, double scalarized,
                                 double cost, const std::string& lane,
                                 double elapsed) {
      static Counter& publications_total =
          MetricsRegistry::Global().GetCounter(
              "vpart_portfolio_incumbents_total",
              "Incumbents published into the portfolio's shared best");
      publications_total.Increment();
      const long n = ++publications;
      if (ctx.incumbent) {
        IncumbentEvent event;
        event.partitioning = p;
        event.cost = cost;
        event.scalarized = scalarized;
        event.source = lane;
        event.elapsed = elapsed;
        ctx.incumbent(event);
      }
      if (ctx.progress) {
        ProgressEvent event;
        event.phase = kSolverPortfolio;
        event.elapsed = elapsed;
        event.best_cost = cost;
        event.bound = -kInf;
        event.gap = 100.0;
        event.detail = n;
        ctx.progress(event);
      }
    };
  }
  StatusOr<PortfolioResult> raced = SolvePortfolio(cost_model, portfolio);
  VPART_RETURN_IF_ERROR(raced.status());
  SolverRun run;
  run.partitioning = std::move(raced->partitioning);
  run.algorithm = "portfolio(" + raced->winner + ")";
  run.proven_optimal = raced->proven_optimal;
  run.proof = std::move(raced->proof);
  return run;
}

}  // namespace

const std::array<SolverEntry, 5> kSolvers = {{
    {kSolverExhaustive, /*prices_latency=*/false, RunExhaustive},
    {kSolverIlp, /*prices_latency=*/true, RunIlp},
    {kSolverIncremental, /*prices_latency=*/false, RunIncremental},
    {kSolverPortfolio, /*prices_latency=*/false, RunPortfolio},
    {kSolverSa, /*prices_latency=*/false, RunSa},
}};

const SolverEntry* FindSolver(const std::string& name) {
  for (const SolverEntry& entry : kSolvers) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

std::vector<std::string> SolverNames() {
  std::vector<std::string> names;
  for (const SolverEntry& entry : kSolvers) names.emplace_back(entry.name);
  return names;
}

StatusOr<std::string> ResolveSolver(const Instance& instance,
                                    const AdviseRequest& request,
                                    std::vector<std::string>* warnings) {
  auto warn = [warnings](std::string message) {
    VPART_LOG(Warning) << message;
    if (warnings != nullptr) warnings->push_back(std::move(message));
  };
  auto check_latency = [&](const SolverEntry& entry) -> std::string {
    if (request.latency_penalty > 0 && !entry.prices_latency) {
      warn(std::string("solver '") + entry.name +
           "' does not price latency_penalty; it optimizes the base "
           "objective and only reports the latency exposure of its "
           "result");
    }
    return entry.name;
  };

  if (request.solver != kSolverAuto) {
    const SolverEntry* entry = FindSolver(request.solver);
    if (entry == nullptr) {
      return NotFoundError(
          "unknown solver '" + request.solver + "' (available: auto, " +
          JoinStrings(SolverNames(), ", ") + ")");
    }
    return check_latency(*entry);
  }

  // A caller granting threads wants them used: the portfolio race. It does
  // not price the Appendix-A term, so under latency_penalty the ILP's
  // parallel branch & bound runs instead — with a warning, never silently.
  if (request.num_threads > 1) {
    if (request.latency_penalty <= 0) return std::string(kSolverPortfolio);
    warn(StrFormat(
        "auto: latency_penalty=%g excludes %s from the num_threads=%d "
        "race (the Appendix-A term is not in their objective); using %s",
        request.latency_penalty, kSolverPortfolio, request.num_threads,
        kSolverIlp));
    return std::string(kSolverIlp);
  }

  // Enumerating site assignments is exact and instant for small |T|.
  if (instance.num_transactions() <= 9) {
    return check_latency(*FindSolver(kSolverExhaustive));
  }
  // The ILP stays tractable while the linearization is small.
  size_t u_estimate = 0;
  for (int t = 0; t < instance.num_transactions(); ++t) {
    u_estimate += instance.TouchedAttributesOfTransaction(t).size();
  }
  u_estimate *= request.num_sites;
  if (u_estimate <= 4000) return check_latency(*FindSolver(kSolverIlp));
  return check_latency(*FindSolver(kSolverSa));
}

}  // namespace vpart

#include "api/advise.h"

#include <atomic>
#include <limits>
#include <optional>
#include <utility>

#include "api/solver_registry.h"
#include "check/certifier.h"
#include "cost/cost_model_registry.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/attribute_groups.h"
#include "solver/latency.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace vpart {
namespace {

/// Folds one solve's LP statistics into the global metrics registry so
/// Prometheus scrapes see process-lifetime totals alongside the per-solve
/// telemetry.mip block (whose schema stays untouched).
void FoldLpStatsIntoMetrics(const LpSolveStats& stats) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter& lp_solves = registry.GetCounter(
      "vpart_lp_solves_total", "Node-LP solves across all requests");
  static Counter& warm = registry.GetCounter(
      "vpart_lp_warm_starts_total", "Node LPs served by dual reoptimization");
  static Counter& cold = registry.GetCounter(
      "vpart_lp_cold_starts_total", "Node LPs solved from scratch");
  static Counter& iterations = registry.GetCounter(
      "vpart_lp_iterations_total", "Simplex pivots (primal+dual)");
  static Counter& factorizations = registry.GetCounter(
      "vpart_lp_factorizations_total", "Basis factorizations from scratch");
  static Counter& ft_updates = registry.GetCounter(
      "vpart_lp_ft_updates_total", "Forrest-Tomlin basis updates");
  static Counter& lp_micros = registry.GetCounter(
      "vpart_lp_seconds_micro_total", "Microseconds spent inside LP solves");
  lp_solves.Add(stats.lp_solves);
  warm.Add(stats.warm_starts);
  cold.Add(stats.cold_starts);
  iterations.Add(stats.total_iterations());
  factorizations.Add(stats.factorizations);
  ft_updates.Add(stats.ft_updates);
  lp_micros.Add(static_cast<long>(stats.lp_seconds * 1e6));
}

/// Gauge decrement on every exit path (the advise body has many early
/// returns).
struct InflightGuard {
  Gauge& gauge;
  explicit InflightGuard(Gauge& g) : gauge(g) { gauge.Add(1.0); }
  ~InflightGuard() { gauge.Add(-1.0); }
};

}  // namespace

const char* AdviseOutcomeName(AdviseOutcome outcome) {
  switch (outcome) {
    case AdviseOutcome::kComplete:
      return "complete";
    case AdviseOutcome::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Status CheckThreadCount(const std::string& name, int count) {
  if (count >= 0 && count <= kMaxRequestThreads) return Status::Ok();
  return InvalidArgumentError(StrFormat("%s must be in [0, %d] (got %d)",
                                        name.c_str(), kMaxRequestThreads,
                                        count));
}

namespace {

AdviseHooks DeadlineHooks(const AdviseRequest& request) {
  AdviseHooks hooks;
  hooks.token = CancellationToken::WithDeadline(request.time_limit_seconds);
  return hooks;
}

/// The advise pipeline: the solve step (resolve, solve, validate, price,
/// certify, fold the LP stats into the metrics), then, when `snapshots` is
/// set and the request is observed, the snapshot step. The snapshots are
/// taken while the request still counts as in flight.
StatusOr<AdviseResponse> RunAdvice(const Instance& instance,
                                   const AdviseRequest& request,
                                   const AdviseHooks& hooks, bool snapshots) {
  if (request.num_sites < 1) {
    return InvalidArgumentError("num_sites must be >= 1");
  }
  VPART_RETURN_IF_ERROR(CheckThreadCount("num_threads", request.num_threads));
  VPART_RETURN_IF_ERROR(
      CheckThreadCount("ilp.bnb_threads", request.ilp.bnb_threads));
  Stopwatch watch;
  AdviseResponse response;

  // Apply the request's observability budget for the duration of the solve
  // and open the root span. The span lives in an optional so it can be
  // closed (and thus counted) before the telemetry snapshots are taken.
  ScopedObsLevel scoped_obs(request.obs);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static Counter& requests_total = metrics.GetCounter(
      "vpart_advise_requests_total", "Advise requests started");
  static Gauge& inflight = metrics.GetGauge(
      "vpart_advise_inflight", "Advise requests currently executing");
  static Histogram& advise_seconds = metrics.GetHistogram(
      "vpart_advise_seconds", DefaultLatencyBounds(),
      "End-to-end advise latency in seconds");
  requests_total.Increment();
  InflightGuard inflight_guard(inflight);
  std::optional<Span> root_span;
  root_span.emplace("advise", "api");
  root_span->AddArg("solver", request.solver);
  root_span->AddArg("cost_model", request.cost_model.backend);
  root_span->AddArg("num_sites", static_cast<long>(request.num_sites));
  root_span->AddArg("num_threads", static_cast<long>(request.num_threads));

  // Resolve the cost-model backend up front: an unknown name or a
  // solver/model capability mismatch must fail before any solving starts.
  const CostModelRegistry& cost_registry = CostModelRegistry::Global();
  StatusOr<CostBackendCapabilities> cost_caps =
      cost_registry.Capabilities(request.cost_model.backend);
  if (!cost_caps.ok()) {
    return NotFoundError(
        "unknown cost model '" + request.cost_model.backend +
        "' (available: " + JoinStrings(cost_registry.Names(), ", ") + ")");
  }
  if (request.latency_penalty > 0 && !cost_caps->network_transfer) {
    return InvalidArgumentError(
        "latency_penalty models network round trips, but cost model '" +
        request.cost_model.backend + "' (" + cost_caps->description +
        ") has no network transfer term");
  }
  if (request.cost.p > 0 && !cost_caps->network_transfer) {
    // Not an error: the transfer term still prices bytes leaving the
    // fragment, and a caller may weight that deliberately — but the
    // likely cause is the p = 8 network default leaking into a local
    // scenario, so say it loudly.
    const std::string warning = StrFormat(
        "cost.p=%g weights a network transfer term, but cost model '%s' "
        "(%s) models no network; set cost.p to 0 for local placement "
        "unless the weighting is intentional",
        request.cost.p, request.cost_model.backend.c_str(),
        cost_caps->description);
    VPART_LOG(Warning) << warning;
    response.warnings.push_back(warning);
  }

  // Optional §4 reduction; exact (for width-additive cost models), so
  // solve the reduced instance throughout. Backends with line/page
  // rounding price merged attributes differently than their members —
  // grouping would distort their objective, so it is skipped, loudly.
  const Instance* solve_instance = &instance;
  StatusOr<AttributeGrouping> grouping = InvalidArgumentError("unused");
  bool grouped = false;
  if (request.use_attribute_grouping && !cost_caps->additive_widths) {
    const std::string warning =
        "cost model '" + request.cost_model.backend +
        "' prices attribute widths non-additively; skipping the §4 "
        "attribute grouping (only exact for additive backends)";
    VPART_LOG(Warning) << warning;
    response.warnings.push_back(warning);
  } else if (request.use_attribute_grouping) {
    Span grouping_span("attribute_grouping", "api");
    grouping = BuildAttributeGrouping(instance);
    VPART_RETURN_IF_ERROR(grouping.status());
    grouping_span.AddArg("groups", static_cast<long>(grouping->num_groups()));
    if (grouping->num_groups() < instance.num_attributes()) {
      solve_instance = &grouping->reduced;
      grouped = true;
    }
  }

  StatusOr<std::string> resolved = InvalidArgumentError("unresolved");
  {
    Span dispatch_span("registry_dispatch", "registry");
    dispatch_span.AddArg("requested", request.solver);
    resolved = ResolveSolver(*solve_instance, request, &response.warnings);
    VPART_RETURN_IF_ERROR(resolved.status());
    dispatch_span.AddArg("resolved", *resolved);
  }

  // Wrap the caller's hooks so the response can report stream telemetry.
  std::atomic<long> progress_events{0};
  std::atomic<long> incumbents{0};
  SolveContext ctx;
  ctx.token = hooks.token;
  if (hooks.progress) {
    ctx.progress = [&progress_events, &hooks](const ProgressEvent& event) {
      // Stamp the stream position: fetch_add hands every event a unique,
      // dense sequence number even when solver threads emit concurrently.
      // Consumers order by `seq` (delivery order may interleave).
      ProgressEvent numbered = event;
      numbered.seq =
          progress_events.fetch_add(1, std::memory_order_relaxed);
      hooks.progress(numbered);
    };
  }
  if (hooks.incumbent) {
    ctx.incumbent = [&incumbents, &hooks](const IncumbentEvent& event) {
      incumbents.fetch_add(1, std::memory_order_relaxed);
      hooks.incumbent(event);
    };
  }

  // The backend prices the (possibly reduced) solve instance; Borrow is
  // sound here because the synchronous solve cannot outlive this frame —
  // sessions own the instance via shared_ptr one layer up.
  StatusOr<std::shared_ptr<const CostCoefficients>> solve_model =
      InvalidArgumentError("unbuilt");
  {
    Span build_span("build_cost_model", "api");
    build_span.AddArg("backend", request.cost_model.backend);
    solve_model = cost_registry.Build(BorrowInstance(*solve_instance),
                                      request.cost, request.cost_model);
    VPART_RETURN_IF_ERROR(solve_model.status());
  }
  // Cross-request warm seeds carry partitionings in ORIGINAL attribute
  // space (that's what responses hold); when the §4 reduction is active,
  // collapse the incumbent onto the reduced instance so the solver can
  // consume it. A seed that does not fit the solve instance is dropped by
  // the solver-side validation, never an error.
  AdviseRequest seeded_request;
  const AdviseRequest* active_request = &request;
  if (grouped && request.warm.incumbent != nullptr) {
    seeded_request = request;
    seeded_request.warm.incumbent = std::make_shared<const Partitioning>(
        grouping->CollapsePartitioning(*request.warm.incumbent));
    active_request = &seeded_request;
  }
  StatusOr<SolverRun> run = InvalidArgumentError("unsolved");
  {
    Span solve_span("solve", "api");
    solve_span.AddArg("solver", *resolved);
    run = FindSolver(*resolved)->solve(**solve_model, *active_request, ctx);
    VPART_RETURN_IF_ERROR(run.status());
  }

  AdvisorResult& result = response.result;
  result.partitioning = grouped
                            ? grouping->ExpandPartitioning(run->partitioning)
                            : std::move(run->partitioning);
  VPART_RETURN_IF_ERROR(ValidatePartitioning(instance, result.partitioning,
                                             !request.allow_replication));

  // Price the result on the original instance: reuse the solve model when
  // no grouping happened (same instance, same coefficients).
  std::optional<Span> price_span;
  price_span.emplace("price_result", "api");
  std::shared_ptr<const CostCoefficients> full_model = *solve_model;
  if (grouped) {
    StatusOr<std::shared_ptr<const CostCoefficients>> rebuilt =
        cost_registry.Build(BorrowInstance(instance), request.cost,
                            request.cost_model);
    VPART_RETURN_IF_ERROR(rebuilt.status());
    full_model = *rebuilt;
  }
  PriceAdvice(instance, request, *full_model, result);
  const std::string label =
      run->algorithm.empty() ? *resolved : run->algorithm;
  result.algorithm_used = grouped ? label + "+groups" : label;
  result.proven_optimal = run->proven_optimal;
  result.seconds = watch.ElapsedSeconds();
  price_span.reset();

  response.solver_used = *resolved;
  response.cost_model_used = request.cost_model.backend;
  // The one place the proof record is flattened into the public response.
  const SearchProof& proof = run->proof;
  response.bnb_nodes = proof.nodes;
  response.lp_stats = proof.lp_stats;
  response.best_bound = proof.best_bound;
  response.search_exhausted = proof.search_exhausted;
  response.pruned_by_external_bound = proof.pruned_by_external_bound;
  response.root_basis = proof.root_basis;
  if (hooks.user_cancelled != nullptr &&
      hooks.user_cancelled->load(std::memory_order_relaxed)) {
    response.outcome = AdviseOutcome::kCancelled;
  }
  response.incumbents = incumbents.load(std::memory_order_relaxed);
  // Terminal event: the stream always ends with "done" so consumers can
  // close out without racing Wait()/Poll().
  if (hooks.progress) {
    ProgressEvent done;
    done.phase = "done";
    done.elapsed = result.seconds;
    done.best_cost = result.cost;
    done.bound = result.proven_optimal
                     ? full_model->ScalarizedObjective(result.partitioning)
                     : -std::numeric_limits<double>::infinity();
    done.gap = result.proven_optimal ? 0.0 : 100.0;
    done.detail = response.incumbents;
    done.lp = response.lp_stats;
    done.seq = progress_events.fetch_add(1, std::memory_order_relaxed);
    hooks.progress(done);
  }
  response.progress_events = progress_events.load(std::memory_order_relaxed);

  // Independent post-solve certification: on request always, in debug
  // builds unconditionally (every test solve re-verifies for free). A
  // failure is an InternalError — a response that does not certify never
  // reaches the caller.
#ifndef NDEBUG
  constexpr bool kAlwaysCertify = true;
#else
  constexpr bool kAlwaysCertify = false;
#endif
  if (request.certify || kAlwaysCertify) {
    Span certify_span("certify", "api");
    const SolutionCertifier certifier;
    const CertificationReport report =
        certifier.Certify(instance, request, response);
    certify_span.AddArg("checks", report.checks_run);
    if (!report.certified) {
      VPART_LOG(Error) << "certifier: " << report.Summary();
      return InternalError("solution failed certification: " +
                           report.Summary());
    }
    response.certified = true;
  }

  // Fold the solve's LP statistics into the process-lifetime metrics and
  // close the root span so this request's spans are visible in its own
  // trace summary, then capture the observability snapshots.
  FoldLpStatsIntoMetrics(response.lp_stats);
  advise_seconds.Observe(result.seconds);
  root_span->AddArg("cost", result.cost);
  root_span->AddArg("algorithm", result.algorithm_used);
  root_span.reset();
  if (snapshots && request.obs != ObsLevel::kOff) {
    response.metrics = MetricsToJson(metrics.Snapshot());
    response.trace_summary = TraceSummaryToJson(Tracer::Global().Summarize());
  }
  return response;
}

}  // namespace

StatusOr<AdviseResponse> AdviseWithHooks(const Instance& instance,
                                         const AdviseRequest& request,
                                         const AdviseHooks& hooks) {
  return RunAdvice(instance, request, hooks, /*snapshots=*/true);
}

StatusOr<AdviseResponse> Advise(const Instance& instance,
                                const AdviseRequest& request) {
  return AdviseWithHooks(instance, request, DeadlineHooks(request));
}

StatusOr<AdviseResponse> AdviseWithoutSnapshots(
    const Instance& instance, const AdviseRequest& request) {
  return RunAdvice(instance, request, DeadlineHooks(request),
                   /*snapshots=*/false);
}

void PriceAdvice(const Instance& instance, const AdviseRequest& request,
                 const CostCoefficients& model, AdvisorResult& result) {
  result.cost = model.Objective(result.partitioning);
  result.breakdown = model.Breakdown(result.partitioning);
  // `result.cost`/`breakdown` stay the base objective (4) — what every
  // paper table reports; the Appendix-A exposure is surfaced separately.
  result.latency_cost =
      request.latency_penalty > 0
          ? LatencyCost(instance, result.partitioning, request.latency_penalty)
          : 0.0;
  const Partitioning baseline =
      SingleSiteBaseline(instance, /*num_sites=*/1);
  result.single_site_cost = model.Objective(baseline);
  result.reduction_percent =
      result.single_site_cost > 0
          ? 100.0 * (1.0 - result.cost / result.single_site_cost)
          : 0.0;
}

}  // namespace vpart

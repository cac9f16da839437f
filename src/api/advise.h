#ifndef VPART_API_ADVISE_H_
#define VPART_API_ADVISE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/events.h"
#include "api/json.h"
#include "check/audit.h"
#include "cost/cost_coefficients.h"
#include "cost/cost_model_spec.h"
#include "lp/solve_stats.h"
#include "obs/trace.h"
#include "solver/advisor.h"
#include "util/deadline.h"
#include "util/status.h"

namespace vpart {

class Basis;  // lp/simplex.h

/// In-process warm-start seed attached by the serve layer on shape-level
/// cache hits (see serve/solution_cache.h). Never serialized — request JSON
/// cannot carry it; the daemon fills it from its own cache. Both fields are
/// heuristics: an incumbent that fails validation is ignored and a basis
/// that mismatches the model shape falls back to a cold root solve, so a
/// stale seed can cost time but never correctness.
struct WarmSeed {
  /// Starting incumbent in the ORIGINAL instance's attribute space (the
  /// orchestrator re-encodes it for the solve instance). Consumed by the
  /// ilp solver (replacing its internal SA warm start) and published into
  /// the portfolio's shared incumbent before any lane starts.
  std::shared_ptr<const Partitioning> incumbent;
  /// Terminal root-relaxation basis of a previous same-shaped solve; seeds
  /// MipOptions::root_basis through the PR 4 warm-start ladder. Ignored
  /// under latency_penalty > 0 (ψ variables change the model shape).
  std::shared_ptr<const Basis> root_basis;

  bool empty() const { return incumbent == nullptr && root_basis == nullptr; }
};

/// Typed per-solver option blocks. Each block only applies when the named
/// solver (or the portfolio racing it) runs; unrelated blocks are ignored.

struct IlpRequestOptions {
  /// Stop when (incumbent - bound)/|incumbent| falls below this (the
  /// paper's "MIP tolerance gap of 0.1%").
  double mip_gap = 0.001;
  /// Branch & bound workers; 0 derives from AdviseRequest::num_threads
  /// (direct ilp: all of them; portfolio lane: half the lane threads).
  int bnb_threads = 0;
  /// Rounding-dive primal heuristic at the root and while incumbent-less.
  bool enable_dive = true;
  /// Wall clock of the quick SA warm start that seeds the branch & bound;
  /// <= 0 disables warm starting.
  double warm_start_seconds = 2.0;
  /// Node-LP invariant-audit level (check/audit.h): residual checks after
  /// refactorizations (and, at "full", periodically between them),
  /// basis-header checks on every warm-start load, pricing-weight
  /// positivity. Failures surface as telemetry.mip.audit_failures. Off by
  /// default — "off" keeps the telemetry schema byte-identical.
  AuditLevel lp_audit = AuditLevel::kOff;
};

struct SaRequestOptions {
  /// Restart cap once the first anneal finished (SaOptions::max_restarts).
  int max_restarts = 6;
  /// Portfolio lane only: length of one re-anneal slice; each slice
  /// publishes into the shared incumbent and warm-starts from the leader.
  double slice_seconds = 0.5;
};

struct ExhaustiveRequestOptions {
  /// Abort knob: number of transaction assignments examined.
  long max_candidates = 5'000'000;
};

struct IncrementalRequestOptions {
  /// Fraction of (heaviest) transactions annealed first (§4's 20/80 rule).
  double initial_fraction = 0.20;
  /// Number of fold-in batches for the remaining transactions.
  int batches = 4;
};

struct PortfolioRequestOptions {
  bool run_ilp = true;
  bool run_sa = true;
  bool run_incremental = true;
};

/// A service-style advise request: which instance knob settings to solve
/// under, which solver (by name) to use, and the per-solver
/// blocks. The instance itself is passed alongside the request (the
/// request stays a cheap value type that can be serialized, queued, and
/// replayed — see api/request_json.h).
struct AdviseRequest {
  /// Solver name: "auto", "ilp", "sa", "exhaustive", "incremental" or
  /// "portfolio". "auto" is a policy over the other five
  /// (ResolveSolver in solver_registry.h).
  std::string solver = "auto";
  int num_sites = 2;
  /// Worker threads granted to the solve. "auto" picks the portfolio
  /// whenever more than one is granted (and the objective allows it).
  int num_threads = 1;
  /// Family-wide cost knobs (network weight p, load-balance λ) shared by
  /// every backend.
  CostParams cost;
  /// Which cost-model backend prices the placement ("paper", "cacheline"
  /// or "disk_page") plus its per-backend option blocks. Resolved via
  /// CostModelRegistry; unknown names and capability mismatches (e.g.
  /// latency_penalty over a backend with no network transfer term) fail
  /// before any solving starts.
  CostModelSpec cost_model;
  bool allow_replication = true;
  /// Apply the §4 reasonable-cuts reduction before solving (exact).
  bool use_attribute_grouping = true;
  /// Appendix-A per-query latency penalty; only the ILP prices it exactly
  /// (SolverEntry::prices_latency in solver_registry.h).
  double latency_penalty = 0.0;
  /// Whole-request wall clock; <= 0 means unlimited. Sessions turn this
  /// into the CancellationToken deadline shared by every stage.
  double time_limit_seconds = 30.0;
  uint64_t seed = 1;
  /// Run the independent SolutionCertifier (check/certifier.h) over the
  /// response before returning it: partition structure, long-double cost
  /// recomputation through a freshly built cost model, and the B&B bound
  /// audit. A certification failure turns the response into an
  /// InternalError — a wrong "optimal" answer never reaches the caller.
  /// Debug builds certify every response regardless of this flag.
  bool certify = false;
  /// Observability budget for this request (see obs/trace.h): kOff mutes
  /// spans entirely, kBasic (default) records lifecycle spans, kFull adds
  /// hot-path spans (B&B nodes, LP solves/refactorizations). Applied to the
  /// process-global tracer for the duration of the solve.
  ObsLevel obs = ObsLevel::kBasic;

  IlpRequestOptions ilp;
  SaRequestOptions sa;
  ExhaustiveRequestOptions exhaustive;
  IncrementalRequestOptions incremental;
  PortfolioRequestOptions portfolio;

  /// Cross-request warm-start seed (in-process only; see WarmSeed).
  WarmSeed warm;
};

/// How a request finished. Deadline expiry is kComplete (the solver
/// returned its best answer inside its budget, like the legacy API);
/// kCancelled is reserved for an explicit Cancel().
enum class AdviseOutcome { kComplete, kCancelled };

const char* AdviseOutcomeName(AdviseOutcome outcome);

struct AdviseResponse {
  /// The recommendation payload (costs, breakdown, partitioning,
  /// algorithm_used detail label) — same struct the legacy API returns, so
  /// reports and benches consume either path unchanged.
  AdvisorResult result;
  /// Name of the solver that actually ran ("ilp", "sa", ...); resolves
  /// "auto" so callers see the real choice.
  std::string solver_used;
  /// Name of the cost-model backend that priced the solve.
  std::string cost_model_used;
  AdviseOutcome outcome = AdviseOutcome::kComplete;
  /// Human-readable advisories: capability downgrades ("auto" skipping the
  /// portfolio under latency_penalty), ignored blocks, etc.
  std::vector<std::string> warnings;
  /// Event-stream telemetry: how many events fired during the solve.
  long progress_events = 0;
  long incumbents = 0;
  /// Branch & bound telemetry of the solve (the ilp solver or the
  /// portfolio's ILP lane): node count plus the node-LP warm/cold-start and
  /// pivot counters of lp/solve_stats.h. All zero for pure-heuristic
  /// solves. Serialized under `telemetry.mip` in the JSON response.
  long bnb_nodes = 0;
  LpSolveStats lp_stats;
  /// Dual bound and proof provenance behind result.proven_optimal (these
  /// and the two fields above flatten SolverRun::proof): best_bound is in scalarized (eq. 6) space of the solved
  /// (possibly attribute-grouped) instance, -inf when no branch & bound
  /// ran. search_exhausted marks a finished tree search (or a complete
  /// exhaustive enumeration); pruned_by_external_bound marks proofs that
  /// leaned on the portfolio's shared incumbent bound.
  double best_bound = -std::numeric_limits<double>::infinity();
  bool search_exhausted = false;
  bool pruned_by_external_bound = false;
  /// True when the SolutionCertifier re-verified this response (request
  /// certify flag or a debug build). Serialized as `certified` in the JSON
  /// response — absent entirely when certification did not run.
  bool certified = false;
  /// Observability snapshots captured at the end of the solve, serialized
  /// under `telemetry.metrics` / `telemetry.trace_summary` in the JSON
  /// response. Null objects when the request ran with obs = kOff, and from
  /// AdviseWithoutSnapshots. Both reflect the process-global
  /// registry/recorder, so concurrent requests see shared totals
  /// (documented in DESIGN.md).
  JsonValue metrics;
  JsonValue trace_summary;
  /// Terminal basis of the root relaxation when a branch & bound ran with
  /// warm starts enabled (null otherwise). The serve layer caches it and
  /// feeds it back via AdviseRequest::warm on same-shaped requests. Never
  /// serialized to JSON.
  std::shared_ptr<const Basis> root_basis;
};

/// Hooks threaded through a solve; every field is optional. `token` copies
/// alias shared state, so Cancel() on the caller's copy stops the solve.
struct AdviseHooks {
  CancellationToken token;
  ProgressCallback progress;
  IncumbentCallback incumbent;
  /// When non-null and true at the end of the solve, the response outcome
  /// is kCancelled (distinguishes user cancel from deadline expiry, which
  /// both latch the token flag).
  const std::atomic<bool>* user_cancelled = nullptr;
};

/// Synchronous advise: resolves the solver, applies attribute grouping,
/// solves, validates, and prices the result. The blocking core that
/// AdviseSession runs on a background thread.
StatusOr<AdviseResponse> Advise(const Instance& instance,
                                const AdviseRequest& request);

/// As Advise, with caller-provided cancellation and event hooks. The token
/// must carry the request deadline if one is wanted (AdviseSession and
/// Advise construct it via CancellationToken::WithDeadline).
StatusOr<AdviseResponse> AdviseWithHooks(const Instance& instance,
                                         const AdviseRequest& request,
                                         const AdviseHooks& hooks);

/// Advise without the closing telemetry snapshots: the same solve,
/// validation, pricing, certification and metric counters, but `metrics`
/// and `trace_summary` stay null. For fan-out callers that keep only
/// `result` of many sub-solves (batch table lanes, dist table units); a
/// snapshot walks every tracer ring, and the response such a caller
/// returns takes its own.
StatusOr<AdviseResponse> AdviseWithoutSnapshots(const Instance& instance,
                                                const AdviseRequest& request);

/// Prices `result.partitioning` on `instance` as every advise response is
/// priced: `cost` and `breakdown` are objective (4) under `model` (built
/// on `instance` from the request's cost model), `latency_cost` is the
/// Appendix-A exposure under `request.latency_penalty`, and
/// `single_site_cost`/`reduction_percent` compare against the one-site
/// layout. The dist coordinator re-prices worker answers with it.
void PriceAdvice(const Instance& instance, const AdviseRequest& request,
                 const CostCoefficients& model, AdvisorResult& result);

}  // namespace vpart

#endif  // VPART_API_ADVISE_H_

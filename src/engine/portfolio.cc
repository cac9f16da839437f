#include "engine/portfolio.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>

#include "obs/trace.h"
#include "solver/ilp_solver.h"
#include "solver/incremental_solver.h"
#include "solver/sa_solver.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace vpart {
namespace {

/// The racing lanes' meeting point: best partitioning under a mutex plus an
/// atomic mirror of its scalarized objective that the branch & bound reads
/// lock-free on every node (MipOptions.external_upper_bound).
class SharedIncumbent {
 public:
  SharedIncumbent() { bound_.store(std::numeric_limits<double>::infinity()); }

  /// Publishes if strictly better; returns whether `p` took the lead.
  bool Offer(const Partitioning& p, double scalarized, double cost,
             const std::string& owner) {
    std::lock_guard<std::mutex> lock(mu_);
    if (best_.has_value() && scalarized >= scalarized_) return false;
    best_ = p;
    scalarized_ = scalarized;
    cost_ = cost;
    owner_ = owner;
    bound_.store(scalarized, std::memory_order_relaxed);
    return true;
  }

  /// Current leader's partitioning (for warm starts); empty before any
  /// publish.
  std::optional<Partitioning> Leader() const {
    std::lock_guard<std::mutex> lock(mu_);
    return best_;
  }

  bool Snapshot(Partitioning& p, double& scalarized, double& cost,
                std::string& owner) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (!best_.has_value()) return false;
    p = *best_;
    scalarized = scalarized_;
    cost = cost_;
    owner = owner_;
    return true;
  }

  const std::atomic<double>* bound() const { return &bound_; }

 private:
  mutable std::mutex mu_;
  std::optional<Partitioning> best_;
  double scalarized_ = 0.0;
  double cost_ = 0.0;
  std::string owner_;
  std::atomic<double> bound_;
};

}  // namespace

StatusOr<PortfolioResult> SolvePortfolio(const CostCoefficients& cost_model,
                                         const PortfolioOptions& options) {
  if (options.num_sites < 1) {
    return InvalidArgumentError("num_sites must be >= 1");
  }
  if (!options.run_ilp && !options.run_sa && !options.run_incremental) {
    return InvalidArgumentError("portfolio needs at least one lane");
  }
  Stopwatch watch;
  CancellationToken token =
      options.cancel_token != nullptr
          ? *options.cancel_token  // copies alias the caller's state
          : CancellationToken::WithDeadline(options.time_limit_seconds);
  SharedIncumbent shared;

  const int lane_threads =
      options.num_threads > 0 ? options.num_threads : DefaultThreadCount();
  const int bnb_threads =
      options.bnb_threads > 0 ? options.bnb_threads
                              : std::max(1, lane_threads / 2);

  std::mutex lanes_mu;
  std::vector<PortfolioLane> lanes;
  std::atomic<bool> proof_done{false};

  auto publish = [&](const Partitioning& p, const std::string& owner) {
    // Publishing validates first: a lane must never poison the shared
    // bound (the B&B prunes against it) with an infeasible layout.
    if (!ValidatePartitioning(cost_model.instance(), p,
                              !options.allow_replication)
             .ok()) {
      return;
    }
    const double scalarized = cost_model.ScalarizedObjective(p);
    const double cost = cost_model.Objective(p);
    if (shared.Offer(p, scalarized, cost, owner) && options.on_incumbent) {
      options.on_incumbent(p, scalarized, cost, owner,
                           watch.ElapsedSeconds());
    }
  };

  auto record_lane = [&](PortfolioLane lane) {
    std::lock_guard<std::mutex> lock(lanes_mu);
    lanes.push_back(std::move(lane));
  };

  // Cross-request seed: publish before any lane starts, so SA warm-starts
  // from it and the B&B prunes against its bound from node one. publish()
  // validates, so a stale seed is simply ignored.
  if (options.initial_incumbent != nullptr) {
    publish(*options.initial_incumbent, "seed");
  }

  // On one thread the heuristic lanes serialize behind the ILP. The ILP,
  // which runs first, is capped at the race budget less a quarter per
  // heuristic lane, and the incremental lane at its quarter; SA runs last
  // and anneals until the race deadline, so it gets at least its quarter
  // plus whatever the lanes before it left unused.
  const bool lanes_race = lane_threads >= 2;
  const double race_budget = token.SolverBudgetSeconds();
  // 0 means "no slice cap" (the Deadline convention for unlimited).
  const double heuristic_budget =
      (lanes_race || race_budget <= 0) ? 0.0 : race_budget * 0.25;
  const int heuristic_lanes = options.run_sa + options.run_incremental;
  const double ilp_budget = race_budget - heuristic_lanes * heuristic_budget;

  // --- SA lane: short re-anneal slices, each warm-started from the current
  // leader and published back, until the deadline or the ILP's proof.
  auto sa_lane = [&]() {
    Stopwatch lane_watch;
    Span lane_span("lane:sa", "portfolio");
    PortfolioLane lane;
    lane.name = "sa";
    uint64_t slice_seed = options.seed;
    while (!token.cancelled()) {
      const double remaining = token.RemainingSeconds();
      if (remaining < 1e-3) break;
      SaOptions sa;
      sa.seed = slice_seed;
      slice_seed = slice_seed * 6364136223846793005ull + 1442695040888963407ull;
      sa.allow_replication = options.allow_replication;
      sa.cancel_flag = token.flag();
      sa.time_limit_seconds = std::min(options.sa_slice_seconds, remaining);
      std::optional<Partitioning> leader = shared.Leader();
      if (leader.has_value() &&
          leader->num_sites() == options.num_sites) {
        sa.initial = &*leader;
      }
      SaResult result = SolveWithSa(cost_model, options.num_sites, sa);
      publish(result.partitioning, "sa");
      if (!lane.has_solution || result.scalarized < lane.scalarized) {
        lane.has_solution = true;
        lane.cost = result.cost;
        lane.scalarized = result.scalarized;
      }
      if (!token.HasDeadline()) break;  // no budget: one slice is the lane
    }
    lane.seconds = lane_watch.ElapsedSeconds();
    record_lane(std::move(lane));
  };

  // --- Incremental lane: the §4 20/80 heuristic, one full run.
  auto incremental_lane = [&]() {
    Stopwatch lane_watch;
    Span lane_span("lane:incremental", "portfolio");
    PortfolioLane lane;
    lane.name = "incremental";
    IncrementalOptions inc;
    inc.sa.seed = options.seed ^ 0x9e3779b97f4a7c15ull;
    inc.sa.allow_replication = options.allow_replication;
    inc.sa.cancel_flag = token.flag();
    // Half the remaining race budget, further clipped by the
    // serialized-lane slice (heuristic_budget == 0 means no slice cap). An
    // expired race leaves a spent budget here, never 0 = unlimited.
    double budget = token.SolverBudgetSeconds() / 2;
    if (heuristic_budget > 0) budget = std::min(budget, heuristic_budget);
    inc.sa.time_limit_seconds = budget;
    SaResult result =
        SolveIncrementally(cost_model, options.num_sites, inc);
    publish(result.partitioning, "incremental");
    lane.has_solution = true;
    lane.cost = result.cost;
    lane.scalarized = result.scalarized;
    lane.seconds = lane_watch.ElapsedSeconds();
    record_lane(std::move(lane));
  };

  // --- ILP lane: branch & bound pruning against the shared atomic bound;
  // its exhausted search is the portfolio's optimality proof.
  auto ilp_lane = [&]() {
    Stopwatch lane_watch;
    Span lane_span("lane:ilp", "portfolio");
    PortfolioLane lane;
    lane.name = "ilp";
    IlpSolverOptions ilp;
    ilp.formulation.num_sites = options.num_sites;
    ilp.formulation.allow_replication = options.allow_replication;
    ilp.mip.relative_gap = options.relative_gap;
    ilp.mip.time_limit_seconds = ilp_budget;
    ilp.mip.num_threads = bnb_threads;
    ilp.mip.external_upper_bound = shared.bound();
    ilp.mip.cancel_flag = token.flag();
    ilp.mip.lp_options.audit_level = options.lp_audit;
    ilp.root_basis = options.root_basis;
    IlpSolveResult result = SolveWithIlp(cost_model, ilp);
    lane.proof = result.proof;
    if (result.ok()) {
      publish(*result.partitioning, "ilp");
      lane.has_solution = true;
      lane.cost = result.cost;
      lane.scalarized = result.scalarized;
    }
    if (result.proof.search_exhausted) {
      // Proof complete: nothing beats min(ILP incumbent, shared bound)
      // within the gap. Stop the heuristic lanes.
      proof_done.store(true, std::memory_order_relaxed);
      token.Cancel();
    }
    lane.seconds = lane_watch.ElapsedSeconds();
    record_lane(std::move(lane));
  };

  // Lanes start in this order; the caller runs the first (PortfolioOptions
  // num_threads says which lanes share a thread).
  std::vector<std::function<void()>> run;
  if (options.run_ilp) run.push_back(ilp_lane);
  if (options.run_incremental) run.push_back(incremental_lane);
  if (options.run_sa) run.push_back(sa_lane);
  ParallelFor(static_cast<int>(run.size()), lane_threads,
              [&run](int i) { run[i](); });

  PortfolioResult result;
  result.seconds = watch.ElapsedSeconds();
  result.lanes = std::move(lanes);
  for (const PortfolioLane& lane : result.lanes) {
    if (lane.name == "ilp") result.proof = lane.proof;
  }
  result.proven_optimal = proof_done.load(std::memory_order_relaxed);
  if (!shared.Snapshot(result.partitioning, result.scalarized, result.cost,
                       result.winner)) {
    return InfeasibleError(
        "no portfolio lane produced a feasible partitioning");
  }
  return result;
}

}  // namespace vpart

#include "mip/branch_and_bound.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace vpart {
namespace {

/// Function-local statics keep the registry lookup off the per-node path.
Counter& BnbNodesTotal() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "vpart_bnb_nodes_total", "Branch & bound nodes processed");
  return counter;
}

Histogram& NodeLpSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "vpart_node_lp_seconds", DefaultLatencyBounds(),
      "Wall seconds per node-LP solve (warm or cold)");
  return histogram;
}

}  // namespace

const char* MipStatusName(MipStatus status) {
  switch (status) {
    case MipStatus::kOptimal:
      return "OPTIMAL";
    case MipStatus::kFeasible:
      return "FEASIBLE";
    case MipStatus::kInfeasible:
      return "INFEASIBLE";
    case MipStatus::kNoSolution:
      return "NO_SOLUTION";
  }
  return "UNKNOWN";
}

double GapPercent(double incumbent, double bound) {
  if (!std::isfinite(incumbent) || !std::isfinite(bound)) return 100.0;
  const double denom = std::max(std::abs(incumbent), 1e-9);
  return 100.0 * std::max(0.0, incumbent - bound) / denom;
}

namespace {

using Bounds = std::vector<std::pair<double, double>>;

double ExternalBound(const MipOptions& options) {
  if (options.external_upper_bound == nullptr) return kLpInfinity;
  return options.external_upper_bound->load(std::memory_order_relaxed);
}

bool Cancelled(const MipOptions& options) {
  return options.cancel_flag != nullptr &&
         options.cancel_flag->load(std::memory_order_relaxed);
}

/// (ub - bound)/|ub| <= gap: no open node below `bound` can improve on `ub`
/// by more than the relative gap.
bool WithinGap(double ub, double bound, double gap) {
  if (!std::isfinite(ub)) return false;
  const double denom = std::max(std::abs(ub), 1e-9);
  return (ub - bound) / denom <= gap;
}

/// Most fractional integer variable of `x`, or -1 when integral.
int MostFractionalVariable(const LpModel& model, double integrality_tol,
                           const std::vector<double>& x) {
  int best = -1;
  double best_score = integrality_tol;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) continue;
    const double frac = x[j] - std::floor(x[j]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_score) {
      best_score = dist;
      best = j;
    }
  }
  return best;
}

/// Per-worker LP engine: one reusable SimplexSolver (the constraint matrix
/// is built once per worker, not once per node) plus the warm/cold fallback
/// ladder — dual reoptimization from the parent basis, then cold two-phase
/// primal, then the cold retry under tight refactorization.
class NodeLpSolver {
 public:
  NodeLpSolver(const LpModel& model, const MipOptions& options)
      : solver_(model, options.lp_options),
        use_warm_(options.use_warm_start) {}

  /// Solves the node LP under `bounds`, trying `warm` (the parent node's
  /// optimal basis) first when warm starting is on. `delta` receives the
  /// telemetry of exactly this call, so callers can merge it under their
  /// own lock.
  LpResult Solve(const Bounds& bounds, const Basis* warm, double time_limit,
                 LpSolveStats& delta) {
    delta = LpSolveStats();
    Stopwatch watch;
    solver_.SetBounds(&bounds);
    solver_.SetTimeLimit(time_limit);
    LpResult lp;
    bool answered = false;
    if (use_warm_ && warm != nullptr && solver_.LoadBasis(*warm)) {
      lp = solver_.Reoptimize();
      delta.dual_iterations += lp.dual_iterations;
      lp.AddFactorCountersTo(delta);
      if (lp.status == LpStatus::kOptimal ||
          lp.status == LpStatus::kInfeasible) {
        ++delta.warm_starts;
        answered = true;
      } else if (lp.status == LpStatus::kTimeLimit) {
        // The node budget ran out mid-reoptimization; a cold start would
        // only spend more of a budget that is already gone. The dual path
        // answered (with a deadline), so the warm/cold ledger stays
        // closed: warm_starts + cold_starts == lp_solves.
        ++delta.warm_starts;
        answered = true;
      } else {
        ++delta.warm_start_failures;
      }
    }
    if (!answered) {
      lp = solver_.SolveWithRetry();
      ++delta.cold_starts;
      delta.primal_iterations += lp.iterations;
      delta.phase1_iterations += lp.phase1_iterations;
      lp.AddFactorCountersTo(delta);
    }
    ++delta.lp_solves;
    delta.lp_seconds = watch.ElapsedSeconds();
    NodeLpSeconds().Observe(delta.lp_seconds);
    return lp;
  }

  /// Snapshot of the last optimal basis, shareable with child nodes; null
  /// when warm starting is off or no reusable basis exists.
  std::shared_ptr<const Basis> SaveBasis() const {
    if (!use_warm_) return nullptr;
    Basis saved = solver_.SaveBasis();
    if (!saved.valid()) return nullptr;
    return std::make_shared<const Basis>(std::move(saved));
  }

 private:
  SimplexSolver solver_;
  bool use_warm_;
};

/// A node is one single-variable bound tightening over its parent. Nodes
/// are immutable once published, so any worker materializes a node's bounds
/// by walking its chain root-ward without touching shared state; a chain
/// lives as long as some open node descends from it.
struct Node {
  std::shared_ptr<const Node> parent;  // null at the root
  int var = -1;
  double lower = 0.0;
  double upper = 0.0;
  double bound = -kLpInfinity;  // LP bound inherited from the parent
  long id = 0;                  // creation order
};

/// An open node and its parent's optimal basis for the dual warm start
/// (siblings share one snapshot). The basis rides the open entry, not the
/// node, so it is freed once the node LP has run — chains outlive their
/// nodes in their descendants, and so would every basis ever saved.
struct OpenNode {
  std::shared_ptr<const Node> node;
  std::shared_ptr<const Basis> warm;
};

/// The open nodes, popped in the order the caller's search implies:
/// depth-first pops the last pushed (plunging), best-first the least
/// (bound, creation id).
class OpenSet {
 public:
  explicit OpenSet(bool best_first) : best_first_(best_first) {}

  bool empty() const { return nodes_.empty(); }

  void Push(OpenNode open) {
    nodes_.push_back(std::move(open));
    if (best_first_) std::push_heap(nodes_.begin(), nodes_.end(), PopsLater);
  }

  OpenNode Pop() {
    if (best_first_) std::pop_heap(nodes_.begin(), nodes_.end(), PopsLater);
    OpenNode open = std::move(nodes_.back());
    nodes_.pop_back();
    return open;
  }

 private:
  static bool PopsLater(const OpenNode& a, const OpenNode& b) {
    if (a.node->bound != b.node->bound) return a.node->bound > b.node->bound;
    return a.node->id > b.node->id;
  }

  bool best_first_;
  std::vector<OpenNode> nodes_;
};

/// The one branch & bound search behind SolveMip. Workers share the open
/// set, the incumbent and the proof under `mu_`; each owns a NodeLpSolver
/// and drops the lock around its LP solves and dives.
class TreeSearch {
 public:
  /// `best_first` orders the open set.
  TreeSearch(const LpModel& model, const MipOptions& options, bool best_first)
      : model_(model),
        options_(options),
        deadline_(options.time_limit_seconds),
        open_(best_first) {}

  /// Searches with `workers` workers on ParallelFor: the caller's thread
  /// is one of them, so a single worker starts no thread. Rethrows the
  /// first exception a worker threw (a progress callback's, say) once every
  /// worker joined.
  void Run(int workers);
  /// SolveMip's answer, once Run returned.
  MipResult Result();

 private:
  /// Runs Worker(); an exception stops every worker and propagates.
  void Work();
  void Worker();
  /// A popped node's remaining steps (DESIGN.md "One search core"): LP,
  /// root record, prune, branch or incumbent, dive, children. Called
  /// without the lock.
  void Process(OpenNode open, long ordinal, Bounds& bounds,
               NodeLpSolver& lp_solver);
  void MaterializeBounds(const Node& node, Bounds& bounds) const;
  /// Offers `x` (LP objective `objective`) as the incumbent: integers are
  /// rounded and the model re-checked before it is stored.
  void OfferIncumbent(const std::vector<double>& x, double objective);
  /// Rounding dive from (bounds, lp): repeatedly fixes the fractional
  /// integer closest to integrality at its rounding and re-solves, each
  /// step warm-starting off the previous one's basis.
  void Dive(Bounds bounds, LpResult lp, NodeLpSolver& lp_solver);
  /// Snapshots progress under mu_ and fires the callback unlocked, so a
  /// slow handler never stalls siblings (and a handler that queries the
  /// solver cannot self-deadlock).
  void EmitProgressLocked(std::unique_lock<std::mutex>& lock,
                          bool announce_incumbent);
  /// Prunes `bound` against min(own incumbent, external bound) within the
  /// gap; notes when the external bound was the deciding reason.
  bool PruneLocked(double bound);
  bool GapClosedLocked();
  void EraseOpenBoundLocked(double bound) {
    open_bounds_.erase(open_bounds_.find(bound));
  }
  double OwnIncumbentLocked() const {
    return have_incumbent_ ? incumbent_obj_ : kLpInfinity;
  }
  /// Per-LP wall budget: whatever remains of the MIP clock, or the raw LP
  /// option when the search is unbounded. An expired deadline reports a
  /// spent budget, not 0 — SimplexOptions reads <= 0 as "no limit", which
  /// would let one node LP run unbudgeted past the MIP wall clock.
  double NodeBudget() const {
    if (!deadline_.HasLimit()) return options_.lp_options.time_limit_seconds;
    return deadline_.SolverBudgetSeconds();
  }

  const LpModel& model_;
  const MipOptions& options_;
  Deadline deadline_;
  Stopwatch watch_;

  std::mutex mu_;
  std::condition_variable cv_;
  OpenSet open_;
  std::multiset<double> open_bounds_;  // open + in-flight node bounds
  long next_id_ = 0;
  int active_ = 0;  // nodes in flight
  bool stop_ = false;
  bool closed_ = false;
  bool any_lp_failure_ = false;
  bool pruned_by_external_ = false;
  bool have_incumbent_ = false;
  double incumbent_obj_ = kLpInfinity;
  std::vector<double> incumbent_;
  double root_bound_ = -kLpInfinity;
  SearchProof proof_;  // nodes, lp_stats and root_basis accumulate here
  std::atomic<bool> diving_{false};
};

void TreeSearch::Run(int workers) {
  if (options_.initial_solution != nullptr) {
    const std::vector<double>& x0 = *options_.initial_solution;
    if (model_.CheckFeasible(x0, 1e-6).ok()) {
      OfferIncumbent(x0, model_.EvaluateObjective(x0));
    } else {
      VPART_LOG(Warning) << "warm-start solution rejected as infeasible";
    }
  }
  // Cross-request seed: the root reoptimizes from a prior solve's terminal
  // root basis instead of a cold two-phase primal. Mismatches fall back
  // cold inside NodeLpSolver.
  open_.Push({std::make_shared<const Node>(), options_.root_basis});
  open_bounds_.insert(-kLpInfinity);
  ParallelFor(workers, workers, [this](int) { Work(); });
}

void TreeSearch::Work() {
  try {
    Worker();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
    throw;
  }
}

void TreeSearch::Worker() {
  NodeLpSolver lp_solver(model_, options_);
  Bounds bounds(model_.num_variables());
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (open_.empty() && active_ == 0) break;  // the tree is exhausted
    if (deadline_.Expired() || Cancelled(options_) ||
        (options_.max_nodes > 0 && proof_.nodes >= options_.max_nodes)) {
      break;
    }
    if (GapClosedLocked()) {
      closed_ = true;
      break;
    }
    if (open_.empty()) {
      // Siblings' nodes in flight may still branch. The timed wait notices
      // deadlines and cancellation while idle.
      cv_.wait_for(lock, std::chrono::milliseconds(10));
      continue;
    }
    OpenNode open = open_.Pop();
    if (PruneLocked(open.node->bound)) {
      EraseOpenBoundLocked(open.node->bound);
      continue;
    }
    const long ordinal = ++proof_.nodes;
    // Count this node in flight BEFORE a progress tick drops the lock: a
    // sibling seeing open_ empty and active_ == 0 would declare the tree
    // exhausted while this node still has children to push.
    ++active_;
    if (options_.progress_node_interval > 0 &&
        ordinal % options_.progress_node_interval == 0) {
      EmitProgressLocked(lock, /*announce_incumbent=*/false);
    }
    lock.unlock();
    Process(std::move(open), ordinal, bounds, lp_solver);
    lock.lock();
    --active_;
  }
  stop_ = true;
  cv_.notify_all();
}

void TreeSearch::Process(OpenNode open, long ordinal, Bounds& bounds,
                         NodeLpSolver& lp_solver) {
  const Node& node = *open.node;
  const bool is_root = node.parent == nullptr;
  BnbNodesTotal().Increment();
  // Hot-path span: only recorded under full tracing (kFull gates the
  // per-node cost to requests that asked for flame-chart depth).
  Span node_span("bnb_node", "mip", ObsLevel::kFull);
  node_span.AddArg("node", ordinal);
  node_span.AddArg("bound", node.bound);
  MaterializeBounds(node, bounds);

  LpSolveStats delta;
  const LpResult lp =
      lp_solver.Solve(bounds, open.warm.get(), NodeBudget(), delta);
  open.warm.reset();

  bool want_dive = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    proof_.lp_stats.Add(delta);
    if (lp.status == LpStatus::kUnbounded) {
      // A bounded-variable MIP cannot be unbounded unless the model has
      // unbounded continuous directions; surface as a failure bound.
      VPART_LOG(Warning) << "LP relaxation unbounded at node";
    } else if (lp.status != LpStatus::kOptimal &&
               lp.status != LpStatus::kInfeasible) {
      // Conservative: drop the node. Its bound leaves the open set, so no
      // closure claim may rest on the open set from here on.
      any_lp_failure_ = true;
    }
    if (lp.status != LpStatus::kOptimal) {
      EraseOpenBoundLocked(node.bound);
      return;
    }
    if (is_root) {
      root_bound_ = lp.objective;
      // Export the root relaxation's optimal basis before any dive reuses
      // the engine; a future same-shaped solve seeds its root with it.
      proof_.root_basis = lp_solver.SaveBasis();
    }
    if (PruneLocked(lp.objective)) {
      EraseOpenBoundLocked(node.bound);
      return;
    }
    // Primal heuristic: dive from the root, and periodically while no
    // incumbent has been found yet.
    want_dive = options_.enable_dive &&
                (is_root || (!have_incumbent_ && ordinal % 50 == 0));
  }

  const int branch_var =
      MostFractionalVariable(model_, options_.integrality_tol, lp.values);
  if (branch_var < 0) {
    OfferIncumbent(lp.values, lp.objective);
    std::lock_guard<std::mutex> lock(mu_);
    EraseOpenBoundLocked(node.bound);
    return;
  }

  // Children warm-start from this node's optimal basis. Snapshot before the
  // dive below: it reuses the same simplex engine.
  const std::shared_ptr<const Basis> child_warm = lp_solver.SaveBasis();
  // One dive at a time across the workers is plenty.
  if (want_dive && !diving_.exchange(true)) {
    Dive(bounds, lp, lp_solver);
    diving_.store(false);
  }

  const double value = lp.values[branch_var];
  const double floor_value = std::floor(value);
  Node down{open.node, branch_var, bounds[branch_var].first, floor_value,
            lp.objective};
  Node up{open.node, branch_var, floor_value + 1.0, bounds[branch_var].second,
          lp.objective};
  const bool prefer_up = (value - floor_value) > 0.5;
  Node& preferred = prefer_up ? up : down;
  Node& other = prefer_up ? down : up;

  std::lock_guard<std::mutex> lock(mu_);
  // The side the LP leans to gets the smaller id and is pushed last:
  // depth-first plunges into it, best-first pops it first among equal
  // bounds.
  preferred.id = ++next_id_;
  other.id = ++next_id_;
  open_.Push({std::make_shared<const Node>(std::move(other)), child_warm});
  open_.Push({std::make_shared<const Node>(std::move(preferred)), child_warm});
  open_bounds_.insert(lp.objective);
  open_bounds_.insert(lp.objective);
  EraseOpenBoundLocked(node.bound);
  cv_.notify_all();
}

void TreeSearch::MaterializeBounds(const Node& node, Bounds& bounds) const {
  for (int j = 0; j < model_.num_variables(); ++j) {
    bounds[j] = {model_.variable(j).lower, model_.variable(j).upper};
  }
  // Walk the chain root-ward; each variable is only tightened monotonically,
  // so intersecting applies every tightening exactly.
  for (const Node* n = &node; n != nullptr; n = n->parent.get()) {
    if (n->var < 0) continue;
    bounds[n->var].first = std::max(bounds[n->var].first, n->lower);
    bounds[n->var].second = std::min(bounds[n->var].second, n->upper);
  }
}

void TreeSearch::OfferIncumbent(const std::vector<double>& x,
                                double objective) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (have_incumbent_ && objective >= incumbent_obj_) return;
  }
  std::vector<double> rounded = x;
  for (int j = 0; j < model_.num_variables(); ++j) {
    if (model_.variable(j).is_integer) rounded[j] = std::round(rounded[j]);
  }
  // Defense in depth: never accept an incumbent the model itself rejects
  // (LP tolerance drift after rounding). The model is immutable, so the
  // check runs outside the lock.
  if (!model_.CheckFeasible(rounded, 1e-5).ok()) {
    VPART_LOG(Warning) << "rejecting infeasible rounded incumbent";
    return;
  }
  const double rounded_objective = model_.EvaluateObjective(rounded);
  std::unique_lock<std::mutex> lock(mu_);
  // A sibling may have stored a better incumbent meanwhile.
  if (have_incumbent_ && objective >= incumbent_obj_) return;
  have_incumbent_ = true;
  incumbent_obj_ = rounded_objective;
  incumbent_ = std::move(rounded);
  EmitProgressLocked(lock, /*announce_incumbent=*/true);
}

void TreeSearch::Dive(Bounds bounds, LpResult lp, NodeLpSolver& lp_solver) {
  // Bounded number of re-solves; each dive step fixes one variable, so the
  // trail of optimal bases makes every step a single-bound-change dual
  // reoptimization.
  Span dive_span("bnb_dive", "mip", ObsLevel::kFull);
  const int max_depth = model_.num_variables() + 8;
  std::shared_ptr<const Basis> trail = lp_solver.SaveBasis();
  for (int depth = 0; depth < max_depth; ++depth) {
    if (deadline_.Expired() || Cancelled(options_)) return;
    // Find the fractional integer variable closest to an integer value.
    int best = -1;
    double best_dist = 0.5 + 1e-9;
    for (int j = 0; j < model_.num_variables(); ++j) {
      if (!model_.variable(j).is_integer) continue;
      const double frac = lp.values[j] - std::floor(lp.values[j]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > 1e-6 && dist < best_dist) {
        best_dist = dist;
        best = j;
      }
    }
    if (best < 0) {
      OfferIncumbent(lp.values, lp.objective);
      return;
    }
    const double rounded = std::round(lp.values[best]);
    bounds[best] = {rounded, rounded};
    LpSolveStats delta;
    lp = lp_solver.Solve(bounds, trail.get(), NodeBudget(), delta);
    {
      std::lock_guard<std::mutex> lock(mu_);
      proof_.lp_stats.Add(delta);
      // A dead end, or no better than the incumbent: give up.
      if (lp.status != LpStatus::kOptimal ||
          (have_incumbent_ && lp.objective >= incumbent_obj_)) {
        return;
      }
    }
    trail = lp_solver.SaveBasis();
  }
}

void TreeSearch::EmitProgressLocked(std::unique_lock<std::mutex>& lock,
                                    bool announce_incumbent) {
  if (!options_.progress) return;
  MipProgress snapshot;
  snapshot.nodes = proof_.nodes;
  snapshot.has_incumbent = have_incumbent_;
  snapshot.incumbent_objective = incumbent_obj_;
  snapshot.best_bound = open_bounds_.empty()
                            ? (have_incumbent_ ? incumbent_obj_ : -kLpInfinity)
                            : *open_bounds_.begin();
  snapshot.seconds = watch_.ElapsedSeconds();
  snapshot.lp_stats = proof_.lp_stats;
  if (announce_incumbent) snapshot.incumbent_values = incumbent_;
  lock.unlock();
  options_.progress(snapshot);
  lock.lock();
}

bool TreeSearch::PruneLocked(double bound) {
  const double own = OwnIncumbentLocked();
  const double effective = std::min(own, ExternalBound(options_));
  if (!WithinGap(effective, bound, options_.relative_gap)) return false;
  if (!WithinGap(own, bound, options_.relative_gap)) {
    pruned_by_external_ = true;  // only the shared bound justified this cut
  }
  return true;
}

bool TreeSearch::GapClosedLocked() {
  // An LP failure silently dropped a subtree: its bound is missing from
  // open_bounds_, so no closure claim based on the open set is sound.
  if (any_lp_failure_) return false;
  const double own = OwnIncumbentLocked();
  const double effective = std::min(own, ExternalBound(options_));
  if (!std::isfinite(effective)) return false;
  const double bound =
      open_bounds_.empty() ? effective : *open_bounds_.begin();
  if (!WithinGap(effective, bound, options_.relative_gap + 1e-12)) {
    return false;
  }
  if (effective < own) pruned_by_external_ = true;
  return true;
}

// Result runs after every worker joined: the lock is not needed.
MipResult TreeSearch::Result() {
  MipResult result;
  result.seconds = watch_.ElapsedSeconds();
  result.proof = proof_;
  // Exhausted: nothing open and no subtree dropped by an LP failure.
  const bool exhausted = open_bounds_.empty() && !any_lp_failure_;
  if (exhausted) {
    // The incumbent is proven — capped by the external bound where it
    // provided cuts (nodes pruned against it were only proven >= the
    // external value, not >= ours).
    double proven = OwnIncumbentLocked();
    if (pruned_by_external_) {
      proven = std::min(proven, ExternalBound(options_));
    }
    result.proof.best_bound = proven;
  } else {
    const double open_min =
        open_bounds_.empty() ? kLpInfinity : *open_bounds_.begin();
    result.proof.best_bound = std::isfinite(open_min) ? open_min : root_bound_;
  }
  if (have_incumbent_) {
    result.objective = incumbent_obj_;
    result.values = incumbent_;
  }
  // Re-check closure: the search may have ended with the gap closed without
  // passing the top-of-loop test again.
  closed_ = closed_ || GapClosedLocked();
  const bool proved = exhausted || closed_;
  result.proof.search_exhausted = proved;
  result.proof.pruned_by_external_bound = pruned_by_external_;
  if (have_incumbent_) {
    // Our incumbent is itself proven optimal only if it is the effective
    // incumbent; otherwise the external bound holder owns the proof.
    const bool own_effective = incumbent_obj_ <= ExternalBound(options_);
    result.status = (proved && (own_effective || !pruned_by_external_))
                        ? MipStatus::kOptimal
                        : MipStatus::kFeasible;
  } else if (proved) {
    // With external pruning this means "nothing beats the external bound",
    // which the caller distinguishes via pruned_by_external_bound.
    result.status = MipStatus::kInfeasible;
  } else {
    result.status = MipStatus::kNoSolution;
  }
  return result;
}

}  // namespace

MipResult SolveMip(const LpModel& model, const MipOptions& options) {
  const int workers = std::max(1, options.num_threads);
  TreeSearch search(model, options, /*best_first=*/workers > 1);
  search.Run(workers);
  return search.Result();
}

}  // namespace vpart

#ifndef VPART_LP_SIMPLEX_H_
#define VPART_LP_SIMPLEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check/audit.h"
#include "lp/factorization.h"
#include "lp/model.h"
#include "lp/pricing.h"
#include "lp/solve_stats.h"
#include "util/deadline.h"

namespace vpart {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
  kNumericalFailure,
};

const char* LpStatusName(LpStatus status);

/// Knobs of the simplex core. The numerical-tolerance table in
/// src/lp/README.md documents how these interact; the defaults are tuned
/// for the eq.-(7) partitioning models and rarely need changing.
struct SimplexOptions {
  /// Bound/row feasibility tolerance.
  double feasibility_tol = 1e-7;
  /// Reduced-cost optimality tolerance.
  double optimality_tol = 1e-7;
  /// Smallest usable pivot element.
  double pivot_tol = 1e-8;
  /// Hard iteration cap; <= 0 selects an automatic cap of
  /// 200·(rows+cols) + 20000.
  long max_iterations = -1;
  /// Wall-clock cap in seconds; <= 0 means none. A timed-out solve reports
  /// kTimeLimit.
  double time_limit_seconds = 0.0;
  /// Forrest–Tomlin updates accepted before the basis LU is rebuilt from
  /// scratch (the update-count refactorization trigger).
  int refactor_interval = 100;
  /// Markowitz threshold partial pivoting: a factorization pivot must be
  /// within this factor of its column's largest active entry.
  double markowitz_threshold = 0.1;
  /// Fill-growth refactorization trigger: rebuild when the factor's
  /// nonzeros exceed this multiple of the fresh factorization's.
  double fill_ratio = 6.0;
  /// Devex pricing for the primal phases (off = classic Dantzig).
  bool use_devex = true;
  /// Dual steepest-edge row pricing for Reoptimize() (off =
  /// most-infeasible row selection).
  bool use_steepest_edge = true;
  /// Long-step (bound-flipping) dual ratio test: harvest nonbasic bound
  /// flips along the dual ray so box-constrained variables move in bulk
  /// per pivot (off = one basis change per dual pivot).
  bool use_bound_flips = true;
  /// After this many consecutive non-improving (degenerate) iterations the
  /// pricing switches to Bland's rule, which guarantees termination. Applies
  /// to both the primal phases and the dual reoptimization.
  long stall_threshold = 2000;
  /// Self-check level (check/audit.h): kOff (default) runs no audits; kCheap
  /// checks ‖A·x − b‖∞ after each refactorization and basis-header
  /// consistency on LoadBasis; kFull adds a residual check every
  /// audit_ft_interval Forrest–Tomlin updates and pricing-weight positivity
  /// at solve end. Failures are counted (LpResult::audit_failures), never
  /// acted on.
  AuditLevel audit_level = AuditLevel::kOff;
  /// Forrest–Tomlin updates between residual audits at AuditLevel::kFull.
  int audit_ft_interval = 25;
};

struct LpResult {
  LpStatus status = LpStatus::kNumericalFailure;
  double objective = 0.0;
  /// Structural variable values. Populated for kOptimal, and as a
  /// best-effort (feasible but suboptimal) iterate when the phase-2 primal
  /// stops on an iteration/time limit; empty otherwise — a phase-1 or
  /// dual-reoptimization stop leaves a primal-infeasible iterate, which is
  /// never exposed.
  std::vector<double> values;
  /// Total pivots of this call (primal phases, or dual when warm_started).
  long iterations = 0;
  long phase1_iterations = 0;
  /// Dual pivots (non-zero only for Reoptimize calls).
  long dual_iterations = 0;
  /// Fresh LU factorizations of the basis during this call.
  long factorizations = 0;
  /// Forrest–Tomlin updates applied during this call.
  long ft_updates = 0;
  /// Nonbasic bound flips (long-step dual + primal bound-to-bound moves).
  long bound_flips = 0;
  /// Devex / dual-steepest-edge reference-framework resets.
  long se_resets = 0;
  /// Refactorization triggers of this call, by reason (update-count cap,
  /// fill growth, numerical distrust); see LpSolveStats for semantics.
  long refactor_updates = 0;
  long refactor_fill = 0;
  long refactor_stability = 0;
  /// Invariant audits executed / failed during this call (plus any audits
  /// run by LoadBasis since the previous call, so the ledger stays closed).
  /// Both 0 unless SimplexOptions::audit_level enables them.
  long audits_run = 0;
  long audit_failures = 0;
  /// True when this result came from a dual reoptimization of a loaded
  /// basis rather than a cold two-phase primal.
  bool warm_started = false;

  /// Folds this call's factorization/pricing counters into an aggregate —
  /// the one place that knows the LpResult <-> LpSolveStats counter
  /// mapping (the iteration/start counters stay caller-assigned because
  /// their meaning depends on the warm/cold path taken).
  void AddFactorCountersTo(LpSolveStats& stats) const {
    stats.factorizations += factorizations;
    stats.ft_updates += ft_updates;
    stats.bound_flips += bound_flips;
    stats.se_resets += se_resets;
    stats.refactor_updates += refactor_updates;
    stats.refactor_fill += refactor_fill;
    stats.refactor_stability += refactor_stability;
    stats.audits_run += audits_run;
    stats.audit_failures += audit_failures;
  }
};

/// Snapshot of a simplex basis: which column is basic in each row and the
/// at-lower/at-upper state of every nonbasic column (structurals and
/// logicals). Cheap to copy, safe to share across threads once saved, and
/// valid for any SimplexSolver built over the *same* LpModel — the point is
/// to carry a parent B&B node's optimal basis into its children. A snapshot
/// taken while a phase-1 artificial is still basic reports !valid() (rare;
/// callers fall back to a cold solve).
class Basis {
 public:
  bool valid() const { return valid_; }
  int num_rows() const { return static_cast<int>(basic_of_row_.size()); }

 private:
  friend class SimplexSolver;
  std::vector<int> basic_of_row_;    // row -> column
  std::vector<uint8_t> state_;       // column -> VarState (struct + logical)
  bool valid_ = false;
};

/// Reusable bounded-variable simplex over one LpModel. The constraint
/// matrix is built once (CSC over structural + logical columns); bounds,
/// time budgets, and the basis are replaceable between solves, so a branch
/// & bound pays the matrix build once per tree and each node solve is
///
///   solver.SetBounds(&node_bounds);
///   if (solver.LoadBasis(parent_basis)) result = solver.Reoptimize();
///   if (result.status needs it)         result = solver.Solve();   // cold
///
/// The linear algebra runs on a sparse LU factorization of the basis
/// (Markowitz pivoting, lp/factorization.h) kept current across pivots by
/// Forrest–Tomlin updates; the basis is refactorized only when the update
/// count, factor fill, or a stability check says so — including across
/// Reoptimize() calls, so reloading the basis the solver already holds
/// (the plunging child of a just-solved B&B node) skips the rebuild
/// entirely.
///
/// Solve() is the cold two-phase primal: devex pricing (Dantzig when
/// disabled, Bland under stalls) with reduced costs maintained
/// incrementally across pivots. Reoptimize() runs a bounded-variable dual
/// simplex from the loaded basis — dual steepest-edge row selection and a
/// long-step (bound-flipping) ratio test — so after a bound tightening the
/// parent's optimal basis reoptimizes in a handful of dual pivots without
/// any phase 1. See src/lp/README.md for the full internals contract.
///
/// Not thread-safe; use one SimplexSolver per worker. The model must
/// outlive the solver.
class SimplexSolver {
 public:
  explicit SimplexSolver(const LpModel& model,
                         const SimplexOptions& options = {});

  /// Replaces the structural variable bounds used by subsequent solves.
  /// `bound_overrides`, when non-null, supplies per-variable (lower, upper)
  /// pairs replacing the model bounds — used by branch & bound to explore
  /// nodes without copying the model. Null restores the model's own bounds.
  void SetBounds(
      const std::vector<std::pair<double, double>>* bound_overrides);

  /// Per-call wall-clock budget; <= 0 means none.
  void SetTimeLimit(double seconds) { options_.time_limit_seconds = seconds; }

  const SimplexOptions& options() const { return options_; }
  void set_options(const SimplexOptions& options) { options_ = options; }

  /// Cold solve: crash basis, phase 1 (artificials), phase 2 primal.
  LpResult Solve();

  /// Solve() with the historical numerical-failure retry: one more cold
  /// attempt under a tighter refactorization schedule before giving up.
  LpResult SolveWithRetry();

  /// Dual-simplex reoptimization from the current basis (set by LoadBasis,
  /// or left by a previous optimal solve). Returns kOptimal/kInfeasible on
  /// a completed proof; kNumericalFailure when the basis is unusable
  /// (singular, dual infeasible beyond tolerance, artificial still basic) —
  /// the caller's ladder then falls back to a cold Solve().
  LpResult Reoptimize();

  /// Snapshot of the current basis (see Basis). Call after an optimal
  /// Solve()/Reoptimize().
  Basis SaveBasis() const;

  /// Installs a snapshot taken from a solver over the same model. Returns
  /// false (leaving the solver needing a cold Solve()) on an invalid or
  /// shape-mismatched snapshot. Loading the basis the solver already
  /// holds keeps the live factorization (no rebuild on the next
  /// Reoptimize()).
  bool LoadBasis(const Basis& basis);

  const LpModel& model() const { return model_; }

 private:
  enum class VarState : uint8_t { kBasic, kAtLower, kAtUpper };

  // --- setup -------------------------------------------------------------
  void BuildMatrix();
  void TruncateArtificials();
  /// Rebuilds the crash basis (nonbasic structurals at bounds, logicals
  /// basic where feasible, artificials where not) for a cold solve.
  void ResetToCrashBasis();
  void ResetCallCounters();
  /// `expose_partial`: limit-stop iterates are primal feasible (phase-2
  /// primal) and may be reported as best-effort values.
  LpResult FinishResult(LpStatus status, bool warm, bool expose_partial);

  // --- linear algebra over the LU factorization --------------------------
  void Ftran(std::vector<double>& w) const;  // w := B^{-1} w
  void Btran(std::vector<double>& v) const;  // v := B^{-T} v
  bool Refactorize();
  void RecomputeBasicValues();
  /// Forrest–Tomlin update for "entering replaces position `row`", with
  /// the trigger-driven refactorization fallback. False = unrecoverable;
  /// `refactorized` reports whether a fresh LU replaced the update (the
  /// caller must then re-price from scratch).
  bool UpdateFactorization(int entering, int row, bool& refactorized);

  // --- invariant audits (SimplexOptions::audit_level) ---------------------
  /// ‖A·x − b‖∞ over the current iterate; counts one audit, and a failure
  /// when the residual exceeds the audit tolerance. `where` labels the log.
  void AuditResidual(const char* where);
  /// kFull-level pricing-weight positivity check at solve end.
  void AuditPricingWeights();

  // --- pricing -----------------------------------------------------------
  /// Reduced-cost violation of nonbasic column j (> 0 when j can improve
  /// the objective by moving off its bound); 0 when ineligible.
  double PrimalViolation(int j, double dj) const;
  int PricePrimal(const std::vector<double>& d) const;
  int PriceBland(const std::vector<double>& d) const;
  void ComputeReducedCosts(std::vector<double>& d);

  // --- iteration loops ---------------------------------------------------
  LpStatus RunPhase(long max_iterations);
  double PhaseObjective() const;
  /// Dual loop from the loaded basis; d_ must hold the reduced costs that
  /// Reoptimize() just verified.
  LpStatus RunDual(long max_iterations);
  /// Primal infeasibility of the basic variable in row i (0 when within
  /// its bounds); the dual loop keeps row_infeasibility_ equal to it.
  double RowInfeasibility(int i) const;
  void RecomputeRowInfeasibilities();
  /// FTRANs CSC column j into w_ and lists its nonzero positions in
  /// w_nonzeros_ (ascending).
  void FtranColumn(int j);
  /// Pivot row r of B⁻¹A: BTRANs e_r into rho_, then records alpha_j =
  /// rho_·a_j over the nonbasic columns (skipping fixed ones when
  /// `skip_fixed`) in alpha_nonzeros_ as the (j, alpha_j) pairs with
  /// alpha_j != 0, ascending j.
  void ComputePivotRow(int r, bool skip_fixed);

  long MaxIterations() const;

  // --- problem data ------------------------------------------------------
  const LpModel& model_;
  SimplexOptions options_;
  Deadline deadline_{0.0};

  int num_rows_ = 0;
  int num_struct_ = 0;
  int num_cols_ = 0;  // struct + logicals (+ artificials during cold solves)

  // CSC matrix over all columns.
  std::vector<int> col_start_;
  std::vector<int> row_index_;
  std::vector<double> value_;

  std::vector<double> lower_, upper_;
  std::vector<double> cost_;       // active phase cost
  std::vector<double> real_cost_;  // phase-2 cost
  std::vector<double> rhs_;
  int first_artificial_ = 0;  // columns >= this are artificial

  // --- simplex state -----------------------------------------------------
  std::vector<int> basis_;       // row -> column
  std::vector<VarState> state_;  // column -> state
  std::vector<double> xval_;     // column -> current value
  LuFactorization factor_;
  /// The live factorization matches basis_ (kept true across pivots by the
  /// Forrest–Tomlin updates; false after a crash reset or loading a
  /// different basis). When true, Reoptimize() skips the rebuild.
  bool factor_synced_ = false;
  DevexPricing devex_;
  DualSteepestEdgePricing dse_;
  bool basis_ready_ = false;  // a loaded/left basis is available
  long iterations_ = 0;
  long phase1_iterations_ = 0;
  long factorizations_ = 0;
  long bound_flips_ = 0;
  LuFactorization::Stats factor_stats_base_;
  long pricing_resets_base_ = 0;
  long stall_count_ = 0;
  bool use_bland_ = false;
  // Audit counters are cumulative for the solver's lifetime; FinishResult
  // reports (total - reported) and advances the watermark, so LoadBasis
  // audits — which land between calls, before the next ResetCallCounters —
  // are attributed to the next solve and the ledger stays closed.
  long audits_run_total_ = 0;
  long audit_failures_total_ = 0;
  long audits_run_reported_ = 0;
  long audit_failures_reported_ = 0;
  int ft_updates_since_audit_ = 0;

  // --- pivot-loop buffers, reused across pivots and solves ---------------
  std::vector<double> d_;          // reduced costs of the running loop
  std::vector<double> pi_;         // ComputeReducedCosts multipliers
  std::vector<double> basic_rhs_;  // RecomputeBasicValues right-hand side
  std::vector<double> rho_;        // B⁻ᵀe_r (row space)
  std::vector<double> w_;          // B⁻¹a_q (position space)
  std::vector<int> w_nonzeros_;    // i with w_[i] != 0, ascending
  /// (j, alpha_j) for every alpha_j != 0 of the last pivot row, ascending j.
  std::vector<std::pair<int, double>> alpha_nonzeros_;
  std::vector<double> flip_col_;
  std::vector<double> row_infeasibility_;  // RunDual: RowInfeasibility(i)
  struct Breakpoint {  // long-step dual ratio test
    int j;
    double ratio;
    double alpha;
  };
  std::vector<Breakpoint> breakpoints_;
  std::vector<int> flips_;
};

/// Solves the LP relaxation of `model` (integrality flags ignored) with a
/// cold two-phase primal simplex — the one-shot convenience wrapper over
/// SimplexSolver, kept for callers that solve each model once.
LpResult SolveLp(const LpModel& model, const SimplexOptions& options = {},
                 const std::vector<std::pair<double, double>>*
                     bound_overrides = nullptr);

}  // namespace vpart

#endif  // VPART_LP_SIMPLEX_H_

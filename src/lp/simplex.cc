#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "check/invariants.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace vpart {

const char* LpStatusName(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "OPTIMAL";
    case LpStatus::kInfeasible:
      return "INFEASIBLE";
    case LpStatus::kUnbounded:
      return "UNBOUNDED";
    case LpStatus::kIterationLimit:
      return "ITERATION_LIMIT";
    case LpStatus::kTimeLimit:
      return "TIME_LIMIT";
    case LpStatus::kNumericalFailure:
      return "NUMERICAL_FAILURE";
  }
  return "UNKNOWN";
}

SimplexSolver::SimplexSolver(const LpModel& model,
                             const SimplexOptions& options)
    : model_(model), options_(options) {
  BuildMatrix();
}

void SimplexSolver::BuildMatrix() {
  num_rows_ = model_.num_constraints();
  num_struct_ = model_.num_variables();
  const int num_logicals = num_rows_;

  // Structural columns. AddConstraint canonicalizes rows (sorted, merged,
  // zero-free), so the transpose below needs no duplicate handling.
  std::vector<std::vector<std::pair<int, double>>> cols(num_struct_);
  for (int i = 0; i < num_rows_; ++i) {
    for (const auto& [j, v] : model_.constraint(i).terms) {
      cols[j].emplace_back(i, v);
    }
  }

  col_start_.clear();
  row_index_.clear();
  value_.clear();
  lower_.clear();
  upper_.clear();
  real_cost_.clear();
  rhs_.resize(num_rows_);
  for (int i = 0; i < num_rows_; ++i) rhs_[i] = model_.constraint(i).rhs;

  auto push_column = [&](const std::vector<std::pair<int, double>>& entries,
                         double lo, double hi, double c) {
    col_start_.push_back(static_cast<int>(row_index_.size()));
    for (const auto& [i, v] : entries) {
      if (v != 0.0) {
        row_index_.push_back(i);
        value_.push_back(v);
      }
    }
    lower_.push_back(lo);
    upper_.push_back(hi);
    real_cost_.push_back(c);
  };

  for (int j = 0; j < num_struct_; ++j) {
    push_column(cols[j], model_.variable(j).lower, model_.variable(j).upper,
                model_.variable(j).objective);
  }

  // Logical column per row: a·x + s = b with sense-dependent bounds.
  for (int i = 0; i < num_rows_; ++i) {
    double lo = 0, hi = 0;
    switch (model_.constraint(i).sense) {
      case ConstraintSense::kLessEqual:
        lo = 0;
        hi = kLpInfinity;
        break;
      case ConstraintSense::kGreaterEqual:
        lo = -kLpInfinity;
        hi = 0;
        break;
      case ConstraintSense::kEqual:
        lo = hi = 0;
        break;
    }
    push_column({{i, 1.0}}, lo, hi, 0.0);
  }
  col_start_.push_back(static_cast<int>(row_index_.size()));

  num_cols_ = num_struct_ + num_logicals;
  first_artificial_ = num_cols_;
  state_.assign(num_cols_, VarState::kAtLower);
  xval_.assign(num_cols_, 0.0);
  basis_.assign(num_rows_, -1);
}

void SimplexSolver::SetBounds(
    const std::vector<std::pair<double, double>>* bound_overrides) {
  for (int j = 0; j < num_struct_; ++j) {
    if (bound_overrides != nullptr) {
      lower_[j] = (*bound_overrides)[j].first;
      upper_[j] = (*bound_overrides)[j].second;
    } else {
      lower_[j] = model_.variable(j).lower;
      upper_[j] = model_.variable(j).upper;
    }
  }
}

void SimplexSolver::TruncateArtificials() {
  if (num_cols_ == first_artificial_) return;
  row_index_.resize(col_start_[first_artificial_]);
  value_.resize(col_start_[first_artificial_]);
  col_start_.resize(first_artificial_ + 1);
  lower_.resize(first_artificial_);
  upper_.resize(first_artificial_);
  real_cost_.resize(first_artificial_);
  state_.resize(first_artificial_);
  xval_.resize(first_artificial_);
  num_cols_ = first_artificial_;
}

void SimplexSolver::ResetToCrashBasis() {
  TruncateArtificials();
  factor_synced_ = false;  // the basis changes wholesale below

  // Nonbasic start: every structural at its finite bound (preferring lower),
  // logicals basic where feasible, artificials where not.
  state_.assign(num_cols_, VarState::kAtLower);
  xval_.assign(num_cols_, 0.0);
  for (int j = 0; j < num_struct_; ++j) {
    if (std::isfinite(lower_[j])) {
      state_[j] = VarState::kAtLower;
      xval_[j] = lower_[j];
    } else if (std::isfinite(upper_[j])) {
      state_[j] = VarState::kAtUpper;
      xval_[j] = upper_[j];
    } else {
      state_[j] = VarState::kAtLower;  // free variable parked at 0
      xval_[j] = 0.0;
    }
  }

  // Row activity of the nonbasic structural start.
  std::vector<double> activity(num_rows_, 0.0);
  for (int j = 0; j < num_struct_; ++j) {
    if (xval_[j] == 0.0) continue;
    for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
      activity[row_index_[k]] += value_[k] * xval_[j];
    }
  }

  basis_.assign(num_rows_, -1);
  std::vector<std::pair<int, double>> artificial_cols;  // (row, sign)
  for (int i = 0; i < num_rows_; ++i) {
    const int logical = num_struct_ + i;
    const double residual = rhs_[i] - activity[i];
    if (residual >= lower_[logical] - options_.feasibility_tol &&
        residual <= upper_[logical] + options_.feasibility_tol) {
      basis_[i] = logical;
      state_[logical] = VarState::kBasic;
      xval_[logical] = residual;
    } else if (residual > upper_[logical]) {
      // Park the logical at its upper bound; artificial covers the excess.
      state_[logical] = VarState::kAtUpper;
      xval_[logical] = upper_[logical];
      artificial_cols.emplace_back(i, +1.0);
    } else {
      state_[logical] = VarState::kAtLower;
      xval_[logical] = lower_[logical];
      artificial_cols.emplace_back(i, -1.0);
    }
  }

  col_start_.pop_back();  // re-open the column list for the artificials
  for (const auto& [row, sign] : artificial_cols) {
    col_start_.push_back(static_cast<int>(row_index_.size()));
    row_index_.push_back(row);
    value_.push_back(sign);
    lower_.push_back(0.0);
    upper_.push_back(kLpInfinity);
    real_cost_.push_back(0.0);
    const int j = num_cols_++;
    state_.push_back(VarState::kBasic);
    const double logical_value = xval_[num_struct_ + row];
    const double residual = rhs_[row] - activity[row] - logical_value;
    xval_.push_back(residual / sign);  // positive by construction
    basis_[row] = j;
  }
  col_start_.push_back(static_cast<int>(row_index_.size()));

  assert(static_cast<int>(col_start_.size()) == num_cols_ + 1);
}

void SimplexSolver::ResetCallCounters() {
  iterations_ = 0;
  phase1_iterations_ = 0;
  factorizations_ = 0;
  bound_flips_ = 0;
  stall_count_ = 0;
  use_bland_ = false;
  deadline_ = Deadline(options_.time_limit_seconds);
  factor_stats_base_ = factor_.stats();
  pricing_resets_base_ = devex_.resets() + dse_.resets();
  // Propagate the solver tolerances into the factorization.
  LuFactorization::Options factor_options = factor_.options();
  factor_options.pivot_tol = options_.pivot_tol;
  factor_options.markowitz_threshold = options_.markowitz_threshold;
  factor_options.refactor_interval = options_.refactor_interval;
  factor_options.fill_ratio = options_.fill_ratio;
  factor_.set_options(factor_options);
}

long SimplexSolver::MaxIterations() const {
  return options_.max_iterations > 0
             ? options_.max_iterations
             : 200L * (num_rows_ + num_cols_) + 20000L;
}

void SimplexSolver::Ftran(std::vector<double>& w) const { factor_.Ftran(w); }

void SimplexSolver::Btran(std::vector<double>& v) const { factor_.Btran(v); }

bool SimplexSolver::Refactorize() {
  // kFull-gated: refactorizations happen mid-pivot-loop; only deep traces
  // pay for the span (one relaxed atomic load otherwise).
  Span span("lp_refactorize", "lp", ObsLevel::kFull);
  if (!factor_.Factorize(col_start_, row_index_, value_, basis_, num_rows_)) {
    factor_synced_ = false;
    return false;
  }
  ++factorizations_;
  factor_synced_ = true;
  RecomputeBasicValues();
  ft_updates_since_audit_ = 0;
  if (options_.audit_level != AuditLevel::kOff) AuditResidual("refactorize");
  return true;
}

bool SimplexSolver::UpdateFactorization(int entering, int row,
                                        bool& refactorized) {
  refactorized = false;
  // The Forrest–Tomlin update keeps the factorization current in O(touched
  // entries); a rejected (unstable) update or a fired trigger collapses
  // everything into a fresh LU instead.
  if (factor_.Update(col_start_, row_index_, value_, entering, row) &&
      !factor_.NeedsRefactorization()) {
    // The pivot's incremental updates to xval_ are complete here (the
    // iteration loops update the iterate before the factorization), so the
    // periodic kFull residual audit sees a consistent state.
    if (options_.audit_level == AuditLevel::kFull &&
        ++ft_updates_since_audit_ >= options_.audit_ft_interval) {
      ft_updates_since_audit_ = 0;
      AuditResidual("ft_update");
    }
    return true;
  }
  refactorized = true;
  return Refactorize();
}

void SimplexSolver::RecomputeBasicValues() {
  std::vector<double>& r = basic_rhs_;
  r = rhs_;
  for (int j = 0; j < num_cols_; ++j) {
    if (state_[j] == VarState::kBasic || xval_[j] == 0.0) continue;
    for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
      r[row_index_[k]] -= value_[k] * xval_[j];
    }
  }
  Ftran(r);
  for (int i = 0; i < num_rows_; ++i) xval_[basis_[i]] = r[i];
}

void SimplexSolver::FtranColumn(int j) {
  w_.assign(num_rows_, 0.0);
  for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
    w_[row_index_[k]] = value_[k];
  }
  Ftran(w_);
  // Branch-free compaction: w is ~25% dense, too irregular for a
  // predictable branch.
  w_nonzeros_.resize(num_rows_);
  int count = 0;
  for (int i = 0; i < num_rows_; ++i) {
    w_nonzeros_[count] = i;
    count += w_[i] != 0.0 ? 1 : 0;
  }
  w_nonzeros_.resize(count);
}

void SimplexSolver::ComputePivotRow(int r, bool skip_fixed) {
  rho_.assign(num_rows_, 0.0);
  rho_[r] = 1.0;
  Btran(rho_);
  alpha_nonzeros_.clear();
  for (int j = 0; j < num_cols_; ++j) {
    if (state_[j] == VarState::kBasic) continue;
    if (skip_fixed && lower_[j] == upper_[j]) continue;
    double a = 0.0;
    for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
      a += rho_[row_index_[k]] * value_[k];
    }
    if (a != 0.0) alpha_nonzeros_.emplace_back(j, a);
  }
}

void SimplexSolver::AuditResidual(const char* where) {
  ++audits_run_total_;
  double rhs_norm = 0.0;
  for (double b : rhs_) rhs_norm = std::max(rhs_norm, std::abs(b));
  const double residual = RowActivityResidualInf(
      num_rows_, col_start_, row_index_, value_, xval_, rhs_);
  // Well above the incremental-drift level of a healthy solve (the basic
  // values go through a fresh FTRAN at every refactorization) but far below
  // anything a genuinely wrong factorization produces.
  const double tolerance =
      std::max(1e-6, 10.0 * options_.feasibility_tol) * (1.0 + rhs_norm);
  if (!(residual <= tolerance)) {
    ++audit_failures_total_;
    VPART_LOG(Warning) << "lp audit: row-activity residual " << residual
                       << " exceeds " << tolerance << " after " << where;
  }
}

void SimplexSolver::AuditPricingWeights() {
  if (options_.use_devex && !devex_.weights().empty()) {
    ++audits_run_total_;
    if (!AllFinitePositive(devex_.weights())) {
      ++audit_failures_total_;
      VPART_LOG(Warning)
          << "lp audit: devex weight non-positive or non-finite";
    }
  }
  if (options_.use_steepest_edge && !dse_.weights().empty()) {
    ++audits_run_total_;
    if (!AllFinitePositive(dse_.weights())) {
      ++audit_failures_total_;
      VPART_LOG(Warning)
          << "lp audit: dual-steepest-edge weight non-positive or non-finite";
    }
  }
}

void SimplexSolver::ComputeReducedCosts(std::vector<double>& d) {
  std::vector<double>& pi = pi_;
  pi.resize(num_rows_);
  for (int i = 0; i < num_rows_; ++i) pi[i] = cost_[basis_[i]];
  Btran(pi);
  d.assign(num_cols_, 0.0);
  for (int j = 0; j < num_cols_; ++j) {
    if (state_[j] == VarState::kBasic) continue;
    double dj = cost_[j];
    for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
      dj -= pi[row_index_[k]] * value_[k];
    }
    d[j] = dj;
  }
}

double SimplexSolver::PrimalViolation(int j, double dj) const {
  if (state_[j] == VarState::kBasic) return 0.0;
  if (lower_[j] == upper_[j]) return 0.0;  // fixed: cannot move
  if (state_[j] == VarState::kAtLower) {
    // Can increase (or, for free variables parked at 0, also decrease).
    double violation = -dj;
    if (!std::isfinite(lower_[j]) && dj > options_.optimality_tol) {
      violation = dj;  // free variable can decrease too
    }
    return violation;
  }
  return dj;
}

int SimplexSolver::PricePrimal(const std::vector<double>& d) const {
  int best = -1;
  double best_score = 0.0;
  for (int j = 0; j < num_cols_; ++j) {
    const double violation = PrimalViolation(j, d[j]);
    if (violation <= options_.optimality_tol) continue;
    // Devex scores by d²/w (steepest edge within the reference framework);
    // with devex off this degrades to the classic Dantzig rule.
    const double score =
        options_.use_devex ? devex_.Score(j, violation) : violation;
    if (best < 0 || score > best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

int SimplexSolver::PriceBland(const std::vector<double>& d) const {
  for (int j = 0; j < num_cols_; ++j) {
    if (state_[j] == VarState::kBasic) continue;
    if (lower_[j] == upper_[j]) continue;
    if (state_[j] == VarState::kAtLower) {
      if (d[j] < -options_.optimality_tol) return j;
      if (!std::isfinite(lower_[j]) && d[j] > options_.optimality_tol)
        return j;
    } else {
      if (d[j] > options_.optimality_tol) return j;
    }
  }
  return -1;
}

double SimplexSolver::PhaseObjective() const {
  double obj = 0.0;
  for (int j = 0; j < num_cols_; ++j) obj += cost_[j] * xval_[j];
  return obj;
}

LpStatus SimplexSolver::RunPhase(long max_iterations) {
  std::vector<double>& d = d_;
  double last_objective = PhaseObjective();

  // Reduced costs are computed once and maintained incrementally across
  // pivots (d'_j = d_j - (d_q/alpha_q)·alpha_j over the pivot row, which
  // devex needs anyway); they are recomputed from scratch after every
  // refactorization, and re-verified before any optimality claim.
  ComputeReducedCosts(d);
  bool d_fresh = true;
  if (options_.use_devex) devex_.Reset(num_cols_);

  while (true) {
    if (iterations_ >= max_iterations) return LpStatus::kIterationLimit;
    if ((iterations_ & 63) == 0 && deadline_.Expired()) {
      return LpStatus::kTimeLimit;
    }
    const int entering = use_bland_ ? PriceBland(d) : PricePrimal(d);
    if (entering < 0) {
      // Incrementally maintained reduced costs drift; only a freshly
      // recomputed vector may certify optimality.
      if (d_fresh) return LpStatus::kOptimal;
      ComputeReducedCosts(d);
      d_fresh = true;
      continue;
    }

    // Direction: +1 when the entering variable increases.
    int dir;
    if (state_[entering] == VarState::kAtLower) {
      dir = (d[entering] < 0 || std::isfinite(lower_[entering])) ? +1 : -1;
      if (!std::isfinite(lower_[entering]) && d[entering] > 0) dir = -1;
    } else {
      dir = -1;
    }

    FtranColumn(entering);
    const std::vector<double>& w = w_;

    // Ratio test (zero entries of w can never limit the step).
    double best_delta = kLpInfinity;
    int leaving_row = -1;
    double leaving_abs = 0.0;
    bool leaving_to_upper = false;
    for (const int i : w_nonzeros_) {
      const double wi = w[i];
      if (std::abs(wi) <= options_.pivot_tol) continue;
      const int b = basis_[i];
      const double rate = -dir * wi;  // d(x_b)/d(delta)
      double limit;
      bool to_upper;
      if (rate < 0) {
        if (!std::isfinite(lower_[b])) continue;
        limit = (xval_[b] - lower_[b]) / (-rate);
        to_upper = false;
      } else {
        if (!std::isfinite(upper_[b])) continue;
        limit = (upper_[b] - xval_[b]) / rate;
        to_upper = true;
      }
      if (limit < 0) limit = 0;  // tolerate tiny infeasibilities
      const bool better =
          limit < best_delta - 1e-12 ||
          (limit < best_delta + 1e-12 && std::abs(wi) > leaving_abs);
      if (better) {
        best_delta = limit;
        leaving_row = i;
        leaving_abs = std::abs(wi);
        leaving_to_upper = to_upper;
      }
    }
    double bound_delta = kLpInfinity;
    if (std::isfinite(lower_[entering]) && std::isfinite(upper_[entering])) {
      bound_delta = upper_[entering] - lower_[entering];
    }

    const double delta = std::min(best_delta, bound_delta);
    if (!std::isfinite(delta)) return LpStatus::kUnbounded;

    // Apply the step.
    if (delta != 0.0) {
      for (const int i : w_nonzeros_) xval_[basis_[i]] -= dir * w[i] * delta;
      xval_[entering] += dir * delta;
    }

    if (bound_delta <= best_delta + 1e-12 && bound_delta < kLpInfinity &&
        delta == bound_delta) {
      // Bound flip: no basis change, reduced costs unchanged.
      state_[entering] = (state_[entering] == VarState::kAtLower)
                             ? VarState::kAtUpper
                             : VarState::kAtLower;
      xval_[entering] = (state_[entering] == VarState::kAtUpper)
                            ? upper_[entering]
                            : lower_[entering];
      ++bound_flips_;
    } else {
      assert(leaving_row >= 0);
      const int leaving = basis_[leaving_row];

      // Pivot row alpha (one BTRAN + column dots): feeds both the
      // incremental reduced-cost update and the devex weights.
      ComputePivotRow(leaving_row, /*skip_fixed=*/false);
      const double alpha_q = w[leaving_row];
      const double dual_step = d[entering] / alpha_q;
      if (dual_step != 0.0) {
        for (const auto& [j, a] : alpha_nonzeros_) d[j] -= dual_step * a;
      }
      d[entering] = 0.0;
      d[leaving] = -dual_step;
      d_fresh = false;
      if (options_.use_devex && !use_bland_) {
        devex_.UpdateOnPivot(alpha_nonzeros_, entering, alpha_q, leaving);
      }

      state_[leaving] =
          leaving_to_upper ? VarState::kAtUpper : VarState::kAtLower;
      xval_[leaving] = leaving_to_upper ? upper_[leaving] : lower_[leaving];
      state_[entering] = VarState::kBasic;
      basis_[leaving_row] = entering;

      bool refactorized = false;
      if (!UpdateFactorization(entering, leaving_row, refactorized)) {
        return LpStatus::kNumericalFailure;
      }
      if (refactorized) {
        ComputeReducedCosts(d);
        d_fresh = true;
      }
    }

    ++iterations_;

    // Stall detection for anti-cycling.
    const double objective = PhaseObjective();
    if (objective < last_objective - 1e-12 * (1.0 + std::abs(last_objective))) {
      stall_count_ = 0;
      last_objective = objective;
    } else if (++stall_count_ > options_.stall_threshold && !use_bland_) {
      use_bland_ = true;
      ComputeReducedCosts(d);  // a clean slate for Bland's rule
      d_fresh = true;
    }
  }
}

LpResult SimplexSolver::FinishResult(LpStatus status, bool warm,
                                     bool expose_partial) {
  if (options_.audit_level == AuditLevel::kFull) AuditPricingWeights();
  LpResult result;
  result.status = status;
  result.iterations = iterations_;
  result.phase1_iterations = phase1_iterations_;
  result.dual_iterations = warm ? iterations_ : 0;
  result.factorizations = factorizations_;
  const LuFactorization::Stats& fs = factor_.stats();
  result.ft_updates = fs.ft_updates - factor_stats_base_.ft_updates;
  result.refactor_updates =
      fs.refactor_updates - factor_stats_base_.refactor_updates;
  result.refactor_fill = fs.refactor_fill - factor_stats_base_.refactor_fill;
  result.refactor_stability =
      fs.refactor_stability - factor_stats_base_.refactor_stability;
  result.bound_flips = bound_flips_;
  result.se_resets = devex_.resets() + dse_.resets() - pricing_resets_base_;
  result.audits_run = audits_run_total_ - audits_run_reported_;
  result.audit_failures = audit_failures_total_ - audit_failures_reported_;
  audits_run_reported_ = audits_run_total_;
  audit_failures_reported_ = audit_failures_total_;
  result.warm_started = warm;
  // Limit-stop iterates are only exposed when the caller says they are
  // primal feasible (a phase-2 primal stop); a phase-1 or dual stop leaves
  // a bound-violating iterate that must never look like an answer.
  if (status == LpStatus::kOptimal ||
      (expose_partial && (status == LpStatus::kIterationLimit ||
                          status == LpStatus::kTimeLimit))) {
    result.values.assign(xval_.begin(), xval_.begin() + num_struct_);
    result.objective = model_.EvaluateObjective(result.values);
  }
  basis_ready_ = status == LpStatus::kOptimal;
  return result;
}

LpResult SimplexSolver::Solve() {
  ResetCallCounters();
  ResetToCrashBasis();
  if (!Refactorize()) {
    return FinishResult(LpStatus::kNumericalFailure, /*warm=*/false,
                        /*expose_partial=*/false);
  }
  const long max_iterations = MaxIterations();

  // Phase 1: drive artificials to zero.
  const bool has_artificials = num_cols_ > first_artificial_;
  if (has_artificials) {
    cost_.assign(num_cols_, 0.0);
    for (int j = first_artificial_; j < num_cols_; ++j) cost_[j] = 1.0;
    LpStatus status = RunPhase(max_iterations);
    phase1_iterations_ = iterations_;
    if (status == LpStatus::kNumericalFailure ||
        status == LpStatus::kIterationLimit ||
        status == LpStatus::kTimeLimit) {
      return FinishResult(status, /*warm=*/false,
                          /*expose_partial=*/false);  // phase-1 iterate
    }
    // Unbounded cannot happen in phase 1 (objective bounded below by 0).
    const double infeasibility = PhaseObjective();
    if (infeasibility >
            options_.feasibility_tol * (1.0 + std::abs(infeasibility)) &&
        infeasibility > 1e-6) {
      return FinishResult(LpStatus::kInfeasible, /*warm=*/false,
                          /*expose_partial=*/false);
    }
    // Fix artificials at zero for phase 2.
    for (int j = first_artificial_; j < num_cols_; ++j) {
      lower_[j] = upper_[j] = 0.0;
      if (state_[j] != VarState::kBasic) xval_[j] = 0.0;
    }
  }

  cost_ = real_cost_;
  cost_.resize(num_cols_, 0.0);
  return FinishResult(RunPhase(max_iterations), /*warm=*/false,
                      /*expose_partial=*/true);  // phase-2 iterate is feasible
}

LpResult SimplexSolver::SolveWithRetry() {
  Span span("lp_solve", "lp", ObsLevel::kFull);
  LpResult result = Solve();
  if (result.status == LpStatus::kNumericalFailure) {
    // One retry with tighter tolerances: a short Forrest–Tomlin update
    // window and a stricter pivot floor keep the factorization accurate
    // when the default schedule drifted.
    const SimplexOptions saved = options_;
    options_.refactor_interval = 20;
    options_.pivot_tol = 1e-10;
    result = Solve();
    options_ = saved;
  }
  return result;
}

Basis SimplexSolver::SaveBasis() const {
  Basis basis;
  basis.basic_of_row_ = basis_;
  basis.state_.resize(first_artificial_);
  for (int j = 0; j < first_artificial_; ++j) {
    basis.state_[j] = static_cast<uint8_t>(state_[j]);
  }
  basis.valid_ = basis_ready_;
  for (int j : basis_) {
    // A basic phase-1 artificial (degenerate at zero) cannot be reproduced
    // from the struct+logical snapshot; such bases are not reusable.
    if (j < 0 || j >= first_artificial_) basis.valid_ = false;
  }
  return basis;
}

bool SimplexSolver::LoadBasis(const Basis& basis) {
  if (!basis.valid_ || basis.num_rows() != num_rows_ ||
      static_cast<int>(basis.state_.size()) != first_artificial_) {
    return false;
  }
  if (options_.audit_level != AuditLevel::kOff) {
    // Basis-header audit: each row's basic column in range and unique, and
    // the snapshot's state vector agreeing with the header. A corrupt
    // snapshot is counted as an audit failure and rejected — the caller's
    // ladder falls back to a cold solve instead of factorizing garbage.
    ++audits_run_total_;
    bool consistent =
        BasisHeaderConsistent(basis.basic_of_row_, first_artificial_);
    if (consistent) {
      for (int col : basis.basic_of_row_) {
        if (basis.state_[col] != static_cast<uint8_t>(VarState::kBasic)) {
          consistent = false;
          break;
        }
      }
    }
    if (!consistent) {
      ++audit_failures_total_;
      VPART_LOG(Warning) << "lp audit: rejected inconsistent basis snapshot";
      return false;
    }
  }
  TruncateArtificials();
  // Loading the basis the solver already holds (the common plunge case:
  // a child reoptimizes right after its parent solved) keeps the live
  // factorization; anything else forces a rebuild on the next Reoptimize.
  factor_synced_ = factor_synced_ && basis.basic_of_row_ == basis_;
  basis_ = basis.basic_of_row_;
  for (int j = 0; j < first_artificial_; ++j) {
    state_[j] = static_cast<VarState>(basis.state_[j]);
  }
  basis_ready_ = true;
  return true;
}

double SimplexSolver::RowInfeasibility(int i) const {
  const int b = basis_[i];
  const double x = xval_[b];
  const double lo = lower_[b];
  const double hi = upper_[b];
  // Selects, not branches: whether a basic variable is in bounds is too
  // irregular to predict. Same value as testing the lower bound first.
  const bool below = std::isfinite(lo) & (x < lo);
  const bool above = std::isfinite(hi) & (x > hi);
  double violation = above ? x - hi : 0.0;
  violation = below ? lo - x : violation;
  return violation;
}

void SimplexSolver::RecomputeRowInfeasibilities() {
  row_infeasibility_.resize(num_rows_);
  for (int i = 0; i < num_rows_; ++i) {
    row_infeasibility_[i] = RowInfeasibility(i);
  }
}

LpStatus SimplexSolver::RunDual(long max_iterations) {
  std::vector<double>& d = d_;
  double last_infeasibility = kLpInfinity;
  int consecutive_repairs = 0;

  // Reduced costs (verified by Reoptimize) are updated incrementally per
  // pivot (d'_j = d_j - (d_q/alpha_q)*alpha_j over the already-computed
  // alpha row); every refactorization recomputes them from scratch, which
  // bounds the incremental drift at refactor_interval pivots. The rows'
  // primal infeasibilities are likewise recomputed after a
  // refactorization and otherwise refreshed on the rows whose basic value
  // or basic variable changed.
  if (options_.use_steepest_edge) dse_.Reset(num_rows_);
  RecomputeRowInfeasibilities();

  while (true) {
    if (iterations_ >= max_iterations) return LpStatus::kIterationLimit;
    if ((iterations_ & 63) == 0 && deadline_.Expired()) {
      return LpStatus::kTimeLimit;
    }

    // Leaving row: dual steepest edge scores violation²/gamma (steepest
    // ascent in the dual); plain mode takes the most infeasible row, and
    // Bland mode the infeasible row with the smallest basic column index.
    int r = -1;
    double best_score = 0.0;
    double total_infeasibility = 0.0;
    for (int i = 0; i < num_rows_; ++i) {
      const double violation = row_infeasibility_[i];
      total_infeasibility += violation;
      if (violation <= options_.feasibility_tol) continue;
      if (use_bland_) {
        if (r < 0 || basis_[i] < basis_[r]) r = i;
      } else {
        const double score = options_.use_steepest_edge
                                 ? dse_.Score(i, violation)
                                 : violation;
        if (score > best_score) {
          best_score = score;
          r = i;
        }
      }
    }
    if (r < 0) return LpStatus::kOptimal;  // primal + dual feasible

    // Degeneracy watch: no strict progress for stall_threshold pivots
    // switches both selection rules to Bland's. The isfinite guard seeds
    // the baseline on the first pivot (inf - inf is NaN, which would
    // otherwise make this branch unreachable).
    if (!std::isfinite(last_infeasibility) ||
        total_infeasibility <
            last_infeasibility - 1e-12 * (1.0 + last_infeasibility)) {
      stall_count_ = 0;
      last_infeasibility = total_infeasibility;
    } else if (++stall_count_ > options_.stall_threshold) {
      use_bland_ = true;
    }

    const int leaving = basis_[r];
    const bool below =
        std::isfinite(lower_[leaving]) && xval_[leaving] < lower_[leaving];
    // infeas > 0 when the basic variable sits above its upper bound.
    double infeas = below ? xval_[leaving] - lower_[leaving]
                          : xval_[leaving] - upper_[leaving];

    // Row r of B^{-1}A: alpha_j = rho·a_j with rho = B^{-T} e_r. The full
    // row (not just the eligible candidates) feeds the post-pivot update.
    ComputePivotRow(r, /*skip_fixed=*/true);

    // Dual ratio test. Short step (Bland, or bound flips disabled): the
    // entering column minimizes |d_j|/|alpha_j| among the sign-eligible
    // nonbasics. Long step: collect every eligible breakpoint instead and
    // walk them below.
    const bool long_step = options_.use_bound_flips && !use_bland_;
    breakpoints_.clear();
    int entering = -1;
    double best_ratio = kLpInfinity;
    double best_alpha = 0.0;
    double entering_alpha = 0.0;
    for (const auto& [j, a] : alpha_nonzeros_) {
      if (std::abs(a) <= options_.pivot_tol) continue;
      // The entering step is theta = infeas / alpha; its sign must move the
      // entering variable off its bound in a feasible direction.
      const bool at_lower = state_[j] == VarState::kAtLower;
      const bool free_var =
          !std::isfinite(lower_[j]) && !std::isfinite(upper_[j]);
      const double theta_sign = infeas / a;
      if (!free_var) {
        if (at_lower && theta_sign <= 0) continue;
        if (!at_lower && theta_sign >= 0) continue;
      }
      double numerator;
      if (free_var) {
        numerator = std::abs(d[j]);
      } else if (at_lower) {
        numerator = std::max(d[j], 0.0);  // clamp tolerance-level noise
      } else {
        numerator = std::max(-d[j], 0.0);
      }
      const double ratio = numerator / std::abs(a);
      if (long_step) {
        breakpoints_.push_back({j, ratio, a});
        continue;
      }
      const bool better =
          use_bland_
              ? ratio < best_ratio - 1e-12
              : (ratio < best_ratio - 1e-12 ||
                 (ratio < best_ratio + 1e-12 &&
                  std::abs(a) > std::abs(best_alpha)));
      if (better) {
        best_ratio = ratio;
        best_alpha = a;
        entering = j;
        entering_alpha = a;
      }
    }

    // Long-step (bound-flipping) walk: passing a boxed breakpoint flips
    // that variable across its box and reduces the dual slope by
    // |alpha|·span; the first breakpoint the remaining slope cannot pass
    // enters the basis. The entering ratio bounds every flipped ratio, so
    // all flipped reduced costs change sign consistently with their new
    // bound once the pivot's dual step is applied. Breakpoints are visited
    // in ascending (ratio, -|alpha|, j) order by selecting the next minimum
    // as the walk goes; it nearly always stops at the first one.
    flips_.clear();
    if (long_step) {
      const auto precedes = [](const Breakpoint& a, const Breakpoint& b) {
        if (a.ratio != b.ratio) return a.ratio < b.ratio;
        const double abs_a = std::abs(a.alpha), abs_b = std::abs(b.alpha);
        if (abs_a != abs_b) return abs_a > abs_b;
        return a.j < b.j;
      };
      double slope = std::abs(infeas);
      for (size_t next = 0; next < breakpoints_.size(); ++next) {
        size_t best = next;
        for (size_t k = next + 1; k < breakpoints_.size(); ++k) {
          if (precedes(breakpoints_[k], breakpoints_[best])) best = k;
        }
        std::swap(breakpoints_[next], breakpoints_[best]);
        const Breakpoint& cand = breakpoints_[next];
        const int j = cand.j;
        const bool boxed =
            std::isfinite(lower_[j]) && std::isfinite(upper_[j]);
        const double gain = boxed ? (upper_[j] - lower_[j]) *
                                        std::abs(cand.alpha)
                                  : kLpInfinity;
        if (!boxed || slope - gain <= options_.feasibility_tol) {
          entering = j;
          entering_alpha = cand.alpha;
          break;
        }
        flips_.push_back(j);
        slope -= gain;
      }
    }
    if (entering < 0) {
      // Dual unbounded: no eligible entering column, or (long step) every
      // breakpoint flipped with slope to spare — either way the violated
      // row cannot be repaired, proving the LP primal infeasible (sound
      // because the start basis was verified dual feasible). Walked flips
      // were never applied; they only existed on the walk.
      return LpStatus::kInfeasible;
    }

    // FTRAN the entering column and cross-check the pivot against the
    // BTRAN row *before* any state changes, so a repair retries cleanly.
    FtranColumn(entering);
    const std::vector<double>& w = w_;
    if (std::abs(w[r]) <= options_.pivot_tol ||
        std::abs(w[r] - entering_alpha) >
            0.5 * std::abs(w[r]) + options_.feasibility_tol) {
      // FTRAN and BTRAN disagree about the pivot: the factorization has
      // drifted beyond trust.
      factor_.MarkUnstable();
      if (++consecutive_repairs > 2 || !Refactorize()) {
        return LpStatus::kNumericalFailure;
      }
      ComputeReducedCosts(d);  // fresh factorization: re-price from scratch
      RecomputeRowInfeasibilities();
      continue;
    }
    consecutive_repairs = 0;

    // Apply the harvested bound flips: nonbasics jump across their box in
    // bulk, the basics absorb the combined column delta via one FTRAN.
    if (!flips_.empty()) {
      flip_col_.assign(num_rows_, 0.0);
      for (int j : flips_) {
        const bool to_upper = state_[j] == VarState::kAtLower;
        const double delta =
            to_upper ? upper_[j] - lower_[j] : lower_[j] - upper_[j];
        state_[j] = to_upper ? VarState::kAtUpper : VarState::kAtLower;
        xval_[j] = to_upper ? upper_[j] : lower_[j];
        for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
          flip_col_[row_index_[k]] += value_[k] * delta;
        }
        ++bound_flips_;
      }
      Ftran(flip_col_);
      for (int i = 0; i < num_rows_; ++i) {
        if (flip_col_[i] != 0.0) {
          xval_[basis_[i]] -= flip_col_[i];
          row_infeasibility_[i] = RowInfeasibility(i);
        }
      }
      // The leaving variable's violation shrank by the flipped mass; a
      // numerically crossed sign degrades to a degenerate pivot.
      infeas = below ? xval_[leaving] - lower_[leaving]
                     : xval_[leaving] - upper_[leaving];
      if (below ? infeas > 0 : infeas < 0) infeas = 0;
    }

    // Basic values move on w's nonzeros, and so do their infeasibilities;
    // row r is refreshed again once the entering variable is basic there.
    const double theta = infeas / w[r];
    for (const int i : w_nonzeros_) {
      xval_[basis_[i]] -= theta * w[i];
      row_infeasibility_[i] = RowInfeasibility(i);
    }
    xval_[entering] += theta;
    xval_[leaving] = below ? lower_[leaving] : upper_[leaving];
    state_[leaving] = below ? VarState::kAtLower : VarState::kAtUpper;

    // Incremental dual update over the alpha row, before the basis flips:
    // the entering column's reduced cost zeroes out, the leaving variable
    // picks up -dual_step, everything else shifts by dual_step * alpha_j.
    const double dual_step = d[entering] / entering_alpha;
    if (dual_step != 0.0) {
      for (const auto& [j, a] : alpha_nonzeros_) d[j] -= dual_step * a;
    }
    d[entering] = 0.0;
    d[leaving] = -dual_step;

    if (options_.use_steepest_edge && !use_bland_) {
      dse_.UpdateOnPivot(w, w_nonzeros_, r, w[r]);
    }

    state_[entering] = VarState::kBasic;
    basis_[r] = entering;
    row_infeasibility_[r] = RowInfeasibility(r);

    bool refactorized = false;
    if (!UpdateFactorization(entering, r, refactorized)) {
      return LpStatus::kNumericalFailure;
    }
    if (refactorized) {
      ComputeReducedCosts(d);
      RecomputeRowInfeasibilities();
    }
    ++iterations_;
  }
}

LpResult SimplexSolver::Reoptimize() {
  Span span("lp_reoptimize", "lp", ObsLevel::kFull);
  ResetCallCounters();
  // Every bail-out below reports the same "warm path unusable" result;
  // the caller's ladder then falls back to a cold Solve().
  auto fail = [this]() {
    return FinishResult(LpStatus::kNumericalFailure, /*warm=*/true,
                        /*expose_partial=*/false);
  };
  if (!basis_ready_) return fail();
  for (int j : basis_) {
    if (j < 0 || j >= first_artificial_) return fail();
  }
  TruncateArtificials();

  // Snap nonbasic variables onto the (possibly changed) bounds. States that
  // no longer make sense (at-upper with the bound gone) degrade to the
  // nearest finite bound, or 0 for free variables.
  for (int j = 0; j < num_cols_; ++j) {
    if (state_[j] == VarState::kBasic) continue;
    if (state_[j] == VarState::kAtUpper && !std::isfinite(upper_[j])) {
      state_[j] = VarState::kAtLower;
    }
    if (state_[j] == VarState::kAtLower && !std::isfinite(lower_[j]) &&
        std::isfinite(upper_[j])) {
      // Keep the free-at-zero convention only for doubly-infinite bounds.
      state_[j] = VarState::kAtUpper;
    }
    xval_[j] = state_[j] == VarState::kAtUpper
                   ? upper_[j]
                   : (std::isfinite(lower_[j]) ? lower_[j] : 0.0);
  }

  cost_ = real_cost_;
  // Reuse the live factorization when the loaded basis is the one the
  // solver already factorized (the plunging-child fast path); only the
  // basic values need recomputing under the new bounds. A stale, invalid,
  // or trigger-due factorization is rebuilt instead.
  if (!factor_synced_ || !factor_.valid() || factor_.NeedsRefactorization()) {
    if (!Refactorize()) return fail();
  } else {
    RecomputeBasicValues();
  }

  // The dual simplex needs a dual-feasible start; the parent's optimal
  // basis is one (bound changes leave reduced costs untouched), but verify
  // within a loosened tolerance so a drifted snapshot falls back cold
  // instead of "proving" a wrong infeasibility.
  std::vector<double>& d = d_;
  ComputeReducedCosts(d);
  const double dual_tol = 10.0 * options_.optimality_tol;
  for (int j = 0; j < num_cols_; ++j) {
    if (state_[j] == VarState::kBasic) continue;
    if (lower_[j] == upper_[j]) continue;
    const bool free_var =
        !std::isfinite(lower_[j]) && !std::isfinite(upper_[j]);
    if (free_var) {
      if (std::abs(d[j]) > dual_tol) return fail();
    } else if (state_[j] == VarState::kAtLower ? d[j] < -dual_tol
                                               : d[j] > dual_tol) {
      return fail();
    }
  }

  return FinishResult(RunDual(MaxIterations()), /*warm=*/true,
                      /*expose_partial=*/false);  // dual stops are infeasible
}

LpResult SolveLp(const LpModel& model, const SimplexOptions& options,
                 const std::vector<std::pair<double, double>>*
                     bound_overrides) {
  SimplexSolver solver(model, options);
  solver.SetBounds(bound_overrides);
  return solver.SolveWithRetry();
}

}  // namespace vpart

#ifndef VPART_LP_PRICING_H_
#define VPART_LP_PRICING_H_

#include <utility>
#include <vector>

namespace vpart {

// ---------------------------------------------------------------------------
// Pricing rules for the simplex core.
//
// [pricing-rule:overview] A pricing rule owns *weights*, not eligibility:
// the solver (lp/simplex.cc) decides which columns/rows may enter or leave
// (variable states, bounds, Bland mode) and asks the rule to score the
// eligible ones; after each pivot it feeds the rule the pivot row/column so
// the weights can be updated incrementally. This split keeps the rules
// free of solver state and makes them swappable — see
// CONTRIBUTING.md § "How to add a pricing rule" for the recipe, and the
// [pricing-rule:*] anchors below for the seams it references.
// ---------------------------------------------------------------------------

/// Devex pricing for the primal simplex (Forrest–Goldfarb reference
/// framework, P. M. J. Harris' devex weights). Each nonbasic column j
/// carries a weight w_j approximating the steepest-edge norm of its edge
/// direction relative to the *reference framework* — the nonbasic set at
/// the last Reset(). The solver picks the eligible column maximizing
/// d_j² / w_j.
///
/// [pricing-rule:devex-update] After a pivot (entering q at pivot-row
/// value alpha_q, pivot row alpha over the nonbasic columns):
///   w_j   <- max(w_j, (alpha_j / alpha_q)² · w_q)   for nonbasic j
///   w_q'  <- max(w_q / alpha_q², 1)                 for the leaving column
/// Weights only grow between resets; when the largest weight exceeds
/// `kResetThreshold` the framework restarts from 1.0 (counted — surfaced
/// as telemetry.mip.se_resets together with the dual resets).
class DevexPricing {
 public:
  /// Largest weight tolerated before the reference framework resets.
  static constexpr double kResetThreshold = 1e7;

  /// Starts a fresh reference framework over `num_cols` columns.
  void Reset(int num_cols);

  double weight(int j) const { return weights_[j]; }

  /// Score of candidate j with reduced-cost violation `violation` (> 0).
  double Score(int j, double violation) const {
    return violation * violation / weights_[j];
  }

  /// Weight update after a basis change. `alpha_row` lists the nonzero
  /// pivot-row entries (j, alpha_j) over the nonbasic columns in ascending
  /// j, `entering`/`alpha_q` the entering column and its pivot-row entry,
  /// `leaving` the column that left the basis. Triggers a framework reset
  /// when weights explode.
  void UpdateOnPivot(const std::vector<std::pair<int, double>>& alpha_row,
                     int entering, double alpha_q, int leaving);

  long resets() const { return resets_; }

  /// All weights of the current framework (empty before the first Reset).
  /// Read-only view for the invariant auditor: every entry must stay finite
  /// and strictly positive between resets.
  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> weights_;
  long resets_ = 0;
};

/// Dual steepest-edge pricing for the dual simplex (the Forrest–Goldfarb
/// "reference weights" flavor, sometimes called dual devex): each basis
/// position i carries gamma_i approximating ‖B⁻ᵀe_i‖², the squared norm of
/// row i of the basis inverse. The solver picks the primal-infeasible row
/// maximizing violation_i² / gamma_i — steepest ascent in the dual — which
/// typically halves dual pivot counts against most-infeasible selection.
///
/// [pricing-rule:dse-update] After a dual pivot with FTRANed entering
/// column w and pivot element alpha_r = w[r]:
///   gamma_i <- max(gamma_i, (w_i / alpha_r)² · gamma_r)   for i ≠ r
///   gamma_r <- max(gamma_r / alpha_r², 1)
/// Exact steepest edge would FTRAN one extra vector per pivot to update
/// the norms exactly; the reference-weight form needs no extra solves and
/// restarts from 1.0 when weights outgrow `kResetThreshold` (counted in
/// se_resets).
class DualSteepestEdgePricing {
 public:
  static constexpr double kResetThreshold = 1e7;

  /// Starts a fresh reference framework over `num_rows` basis positions.
  void Reset(int num_rows);

  double weight(int i) const { return weights_[i]; }

  double Score(int i, double violation) const {
    return violation * violation / weights_[i];
  }

  /// Weight update after a dual pivot: `w` is the FTRANed entering column
  /// (basis-position space), `nonzeros` its nonzero positions in ascending
  /// order, `r` the leaving position, `alpha_r` = w[r].
  void UpdateOnPivot(const std::vector<double>& w,
                     const std::vector<int>& nonzeros, int r,
                     double alpha_r);

  long resets() const { return resets_; }

  /// See DevexPricing::weights().
  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> weights_;
  long resets_ = 0;
};

}  // namespace vpart

#endif  // VPART_LP_PRICING_H_

#ifndef VPART_LP_MODEL_H_
#define VPART_LP_MODEL_H_

#include <limits>
#include <string>
#include <vector>

#include "util/status.h"

namespace vpart {

inline constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

enum class ConstraintSense { kLessEqual, kGreaterEqual, kEqual };

/// A linear program / mixed-integer program in minimization form:
///
///   min  c·x
///   s.t. row_i: a_i·x {<=,>=,=} b_i
///        lower_j <= x_j <= upper_j,  x_j integer where flagged
///
/// Rows and columns are append-only; the model is a plain container that
/// SolveLp / SolveMip consume.
class LpModel {
 public:
  struct Variable {
    std::string name;
    double lower = 0.0;
    double upper = kLpInfinity;
    double objective = 0.0;
    bool is_integer = false;
  };

  struct Constraint {
    std::string name;
    ConstraintSense sense = ConstraintSense::kLessEqual;
    double rhs = 0.0;
    // Column-index/coefficient pairs, canonicalized by AddConstraint:
    // sorted by column, duplicates summed, exact zeros dropped — so every
    // consumer (primal build, dual reoptimizer, feasibility checks) sees
    // the same sparse row.
    std::vector<std::pair<int, double>> terms;
  };

  /// Adds a continuous variable; returns its column index.
  int AddVariable(double lower, double upper, double objective,
                  std::string name = "");

  /// Adds a binary {0,1} variable; returns its column index.
  int AddBinaryVariable(double objective, std::string name = "");

  /// Adds a constraint; returns its row index. Terms with out-of-range
  /// columns are a programming error (asserted). Terms are stored in
  /// canonical form: sorted by column, duplicate columns summed, zero
  /// coefficients dropped.
  int AddConstraint(ConstraintSense sense, double rhs,
                    std::vector<std::pair<int, double>> terms,
                    std::string name = "");

  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_constraints() const {
    return static_cast<int>(constraints_.size());
  }

  const Variable& variable(int j) const { return variables_[j]; }
  const Constraint& constraint(int i) const { return constraints_[i]; }
  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Number of structural nonzeros across all rows.
  size_t num_nonzeros() const;

  /// c·x for a full assignment.
  double EvaluateObjective(const std::vector<double>& x) const;

  /// Verifies bounds, integrality and constraints within `tol`.
  Status CheckFeasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

}  // namespace vpart

#endif  // VPART_LP_MODEL_H_

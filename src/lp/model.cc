#include "lp/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/string_util.h"

namespace vpart {

int LpModel::AddVariable(double lower, double upper, double objective,
                         std::string name) {
  assert(lower <= upper);
  Variable v;
  v.lower = lower;
  v.upper = upper;
  v.objective = objective;
  v.name = name.empty() ? StrFormat("x%d", num_variables()) : std::move(name);
  variables_.push_back(std::move(v));
  return num_variables() - 1;
}

int LpModel::AddBinaryVariable(double objective, std::string name) {
  int j = AddVariable(0.0, 1.0, objective, std::move(name));
  variables_[j].is_integer = true;
  return j;
}

int LpModel::AddConstraint(ConstraintSense sense, double rhs,
                           std::vector<std::pair<int, double>> terms,
                           std::string name) {
  for (const auto& [col, coef] : terms) {
    (void)coef;
    assert(col >= 0 && col < num_variables());
  }
  // Canonicalize: sort by column, merge duplicates, drop exact zeros.
  std::sort(terms.begin(), terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t out = 0;
  for (size_t k = 0; k < terms.size(); ++k) {
    if (out > 0 && terms[out - 1].first == terms[k].first) {
      terms[out - 1].second += terms[k].second;
    } else {
      terms[out++] = terms[k];
    }
  }
  terms.resize(out);
  terms.erase(std::remove_if(terms.begin(), terms.end(),
                             [](const auto& t) { return t.second == 0.0; }),
              terms.end());
  Constraint c;
  c.sense = sense;
  c.rhs = rhs;
  c.terms = std::move(terms);
  c.name =
      name.empty() ? StrFormat("r%d", num_constraints()) : std::move(name);
  constraints_.push_back(std::move(c));
  return num_constraints() - 1;
}

size_t LpModel::num_nonzeros() const {
  size_t nnz = 0;
  for (const Constraint& c : constraints_) nnz += c.terms.size();
  return nnz;
}

double LpModel::EvaluateObjective(const std::vector<double>& x) const {
  assert(x.size() == variables_.size());
  double obj = 0.0;
  for (int j = 0; j < num_variables(); ++j) obj += variables_[j].objective * x[j];
  return obj;
}

Status LpModel::CheckFeasible(const std::vector<double>& x, double tol) const {
  if (x.size() != variables_.size()) {
    return InvalidArgumentError("assignment size mismatch");
  }
  for (int j = 0; j < num_variables(); ++j) {
    const Variable& v = variables_[j];
    if (x[j] < v.lower - tol || x[j] > v.upper + tol) {
      return InfeasibleError(StrFormat("%s = %g violates bounds [%g, %g]",
                                       v.name.c_str(), x[j], v.lower,
                                       v.upper));
    }
    if (v.is_integer && std::abs(x[j] - std::round(x[j])) > tol) {
      return InfeasibleError(
          StrFormat("%s = %g is not integral", v.name.c_str(), x[j]));
    }
  }
  for (int i = 0; i < num_constraints(); ++i) {
    const Constraint& c = constraints_[i];
    double lhs = 0.0;
    for (const auto& [col, coef] : c.terms) lhs += coef * x[col];
    const double slack = c.rhs - lhs;
    switch (c.sense) {
      case ConstraintSense::kLessEqual:
        if (slack < -tol) {
          return InfeasibleError(StrFormat("%s: %g > rhs %g", c.name.c_str(),
                                           lhs, c.rhs));
        }
        break;
      case ConstraintSense::kGreaterEqual:
        if (slack > tol) {
          return InfeasibleError(StrFormat("%s: %g < rhs %g", c.name.c_str(),
                                           lhs, c.rhs));
        }
        break;
      case ConstraintSense::kEqual:
        if (std::abs(slack) > tol) {
          return InfeasibleError(StrFormat("%s: %g != rhs %g", c.name.c_str(),
                                           lhs, c.rhs));
        }
        break;
    }
  }
  return Status::Ok();
}

}  // namespace vpart

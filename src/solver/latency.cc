#include "solver/latency.h"

#include <algorithm>
#include <map>

#include "util/string_util.h"

namespace vpart {

std::vector<int> AddLatencyToFormulation(const CostCoefficients& cost_model,
                                         double latency_penalty,
                                         IlpFormulation& formulation) {
  const Instance& instance = cost_model.instance();
  const int num_s = formulation.options.num_sites;
  LpModel& model = formulation.model;

  // Index existing u variables.
  std::map<std::tuple<int, int, int>, int> u_index;
  for (const IlpFormulation::UVar& u : formulation.u_vars) {
    u_index[{u.t, u.a, u.s}] = u.column;
  }
  auto ensure_u = [&](int t, int a, int s) {
    // A read pair's u is folded into x (see IlpFormulation).
    if (instance.phi(a, t)) return formulation.x_var[t][s];
    auto it = u_index.find({t, a, s});
    if (it != u_index.end()) return it->second;
    const int col =
        model.AddVariable(0.0, 1.0, 0.0, StrFormat("ul_t%d_a%d_s%d", t, a, s));
    formulation.u_vars.push_back({t, a, s, col});
    u_index[{t, a, s}] = col;
    // Zero-objective u needs both directions to pin u = x·y.
    model.AddConstraint(ConstraintSense::kLessEqual, 0.0,
                        {{col, 1.0}, {formulation.x_var[t][s], -1.0}},
                        StrFormat("ulx_t%d_a%d_s%d", t, a, s));
    model.AddConstraint(ConstraintSense::kLessEqual, 0.0,
                        {{col, 1.0}, {formulation.y_var[a][s], -1.0}},
                        StrFormat("uly_t%d_a%d_s%d", t, a, s));
    model.AddConstraint(ConstraintSense::kGreaterEqual, -1.0,
                        {{col, 1.0},
                         {formulation.x_var[t][s], -1.0},
                         {formulation.y_var[a][s], -1.0}},
                        StrFormat("ulxy_t%d_a%d_s%d", t, a, s));
    return col;
  };

  std::vector<int> psi_var(instance.num_queries(), -1);
  for (int q = 0; q < instance.num_queries(); ++q) {
    const Query& query = instance.workload().query(q);
    if (!query.is_write() || query.attributes.empty()) continue;
    const int t = query.transaction_id;

    // Remote-replica count n_q = Σ_{a,s} (y_{a,s} − u_{t,a,s}); constraint
    // n_q − N·ψ_q <= 0 forces ψ_q = 1 whenever any remote replica exists.
    const int psi = model.AddBinaryVariable(
        latency_penalty * query.frequency, StrFormat("psi_q%d", q));
    psi_var[q] = psi;
    std::vector<std::pair<int, double>> terms;
    double big_n = 0.0;
    for (int a : query.attributes) {
      for (int s = 0; s < num_s; ++s) {
        terms.emplace_back(formulation.y_var[a][s], 1.0);
        terms.emplace_back(ensure_u(t, a, s), -1.0);
      }
      big_n += num_s;  // each attribute contributes at most |S|-1 remotes
    }
    terms.emplace_back(psi, -big_n);
    model.AddConstraint(ConstraintSense::kLessEqual, 0.0, std::move(terms),
                        StrFormat("psi_link_q%d", q));
  }
  return psi_var;
}

}  // namespace vpart

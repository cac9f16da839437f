#include "solver/formulation.h"

#include <cassert>
#include <string>

#include "util/string_util.h"

namespace vpart {
namespace {

/// `p` with its sites relabelled in order of first use by transactions
/// 0, 1, …; unused sites follow in their original order. This is the one
/// labelling of p that the first-use rows admit.
Partitioning RelabelSitesByFirstUse(const Partitioning& p) {
  const int num_sites = p.num_sites();
  std::vector<int> relabel(num_sites, -1);
  int next = 0;
  for (int t = 0; t < p.num_transactions(); ++t) {
    int& label = relabel[p.SiteOfTransaction(t)];
    if (label < 0) label = next++;
  }
  for (int s = 0; s < num_sites; ++s) {
    if (relabel[s] < 0) relabel[s] = next++;
  }
  Partitioning q(p.num_transactions(), p.num_attributes(), num_sites);
  for (int t = 0; t < p.num_transactions(); ++t) {
    q.AssignTransaction(t, relabel[p.SiteOfTransaction(t)]);
  }
  for (int a = 0; a < p.num_attributes(); ++a) {
    for (int s = 0; s < num_sites; ++s) {
      if (p.HasAttribute(a, s)) q.PlaceAttribute(a, relabel[s]);
    }
  }
  return q;
}

}  // namespace

Partitioning IlpFormulation::ExtractPartitioning(
    const std::vector<double>& values) const {
  const int num_t = static_cast<int>(x_var.size());
  const int num_a = static_cast<int>(y_var.size());
  Partitioning p(num_t, num_a, options.num_sites);
  for (int t = 0; t < num_t; ++t) {
    int best_site = 0;
    double best_value = -1.0;
    for (int s = 0; s < options.num_sites; ++s) {
      if (values[x_var[t][s]] > best_value) {
        best_value = values[x_var[t][s]];
        best_site = s;
      }
    }
    p.AssignTransaction(t, best_site);
  }
  for (int a = 0; a < num_a; ++a) {
    for (int s = 0; s < options.num_sites; ++s) {
      if (values[y_var[a][s]] > 0.5) p.PlaceAttribute(a, s);
    }
    if (p.ReplicaCount(a) == 0) {
      // Defensive: the covering constraint should prevent this.
      p.PlaceAttribute(a, 0);
    }
  }
  return p;
}

std::vector<double> IlpFormulation::EncodePartitioning(
    const CostCoefficients& cost_model, const Partitioning& p) const {
  const int num_sites = options.num_sites;
  const int num_t = static_cast<int>(x_var.size());
  const int num_a = static_cast<int>(y_var.size());
  assert(p.num_sites() == num_sites);

  const Partitioning q =
      options.break_symmetry ? RelabelSitesByFirstUse(p) : p;
  std::vector<double> values(model.num_variables(), 0.0);
  for (int t = 0; t < num_t; ++t) {
    values[x_var[t][q.SiteOfTransaction(t)]] = 1.0;
  }
  for (int a = 0; a < num_a; ++a) {
    for (int s = 0; s < num_sites; ++s) {
      if (q.HasAttribute(a, s)) values[y_var[a][s]] = 1.0;
    }
  }
  for (const UVar& u : u_vars) {
    const bool on =
        q.SiteOfTransaction(u.t) == u.s && q.HasAttribute(u.a, u.s);
    values[u.column] = on ? 1.0 : 0.0;
  }
  if (m_var >= 0) {
    values[m_var] = cost_model.MaxLoad(q);
  }
  return values;
}

IlpFormulation BuildIlpFormulation(const CostCoefficients& cost_model,
                                   const FormulationOptions& options) {
  const Instance& instance = cost_model.instance();
  const int num_t = instance.num_transactions();
  const int num_a = instance.num_attributes();
  const int num_s = options.num_sites;
  assert(num_s >= 1);

  IlpFormulation f;
  f.options = options;
  // Objective (6) as intended: (1−λ)·cost + λ·m. Without load balancing
  // the objective is plain eq. (4).
  f.lambda =
      options.load_balancing ? 1.0 - cost_model.params().lambda : 1.0;
  LpModel& model = f.model;

  // Folded read pairs: where t reads a (φ_{a,t} = 1) the coloc rows below
  // force y_{a,s} ≥ x_{t,s}, so u_{t,a,s} = x_{t,s}·y_{a,s} equals x_{t,s}
  // at every integer point. Their c1 terms go on x's objective and their
  // c3 terms on x in the load rows.
  std::vector<double> read_c1(num_t, 0.0);
  std::vector<double> read_c3(num_t, 0.0);
  for (int t = 0; t < num_t; ++t) {
    for (int a : instance.ReadSetOfTransaction(t)) {
      read_c1[t] += cost_model.c1(a, t);
      read_c3[t] += cost_model.c3(a, t);
    }
  }

  // --- variables ---------------------------------------------------------
  // Under break_symmetry, x_{t,s} = 0 for s > t is fixed by bounds.
  f.x_var.assign(num_t, std::vector<int>(num_s, -1));
  for (int t = 0; t < num_t; ++t) {
    const double objective = f.lambda * read_c1[t];
    for (int s = 0; s < num_s; ++s) {
      std::string name = StrFormat("x_t%d_s%d", t, s);
      f.x_var[t][s] =
          options.break_symmetry && s > t
              ? model.AddVariable(0.0, 0.0, objective, std::move(name))
              : model.AddBinaryVariable(objective, std::move(name));
    }
  }
  f.y_var.assign(num_a, std::vector<int>(num_s, -1));
  for (int a = 0; a < num_a; ++a) {
    for (int s = 0; s < num_s; ++s) {
      f.y_var[a][s] = model.AddBinaryVariable(
          f.lambda * cost_model.c2(a), StrFormat("y_a%d_s%d", a, s));
    }
  }
  if (options.load_balancing) {
    f.m_var = model.AddVariable(0.0, kLpInfinity,
                                cost_model.params().lambda, "m");
  }

  // u variables for the unread pairs, where they carry cost or load.
  for (int t = 0; t < num_t; ++t) {
    for (int a : instance.TouchedAttributesOfTransaction(t)) {
      if (instance.phi(a, t)) continue;  // folded into x_{t,s}
      const double c1 = cost_model.c1(a, t);
      const double c3 = cost_model.c3(a, t);
      const bool in_load = options.load_balancing && c3 != 0.0;
      if (c1 == 0.0 && !in_load) continue;
      for (int s = 0; s < num_s; ++s) {
        const int col = model.AddVariable(0.0, 1.0, f.lambda * c1,
                                          StrFormat("u_t%d_a%d_s%d", t, a, s));
        f.u_vars.push_back({t, a, s, col});
      }
    }
  }

  // --- constraints -------------------------------------------------------
  // Each transaction on exactly one site.
  for (int t = 0; t < num_t; ++t) {
    std::vector<std::pair<int, double>> terms;
    for (int s = 0; s < num_s; ++s) terms.emplace_back(f.x_var[t][s], 1.0);
    model.AddConstraint(ConstraintSense::kEqual, 1.0, std::move(terms),
                        StrFormat("assign_t%d", t));
  }
  // Attribute covering (>= 1, or == 1 for disjoint partitioning).
  for (int a = 0; a < num_a; ++a) {
    std::vector<std::pair<int, double>> terms;
    for (int s = 0; s < num_s; ++s) terms.emplace_back(f.y_var[a][s], 1.0);
    model.AddConstraint(options.allow_replication
                            ? ConstraintSense::kGreaterEqual
                            : ConstraintSense::kEqual,
                        1.0, std::move(terms), StrFormat("cover_a%d", a));
  }
  // Single-sitedness of reads: y_{a,s} - x_{t,s} >= 0 where φ_{a,t} = 1.
  for (int t = 0; t < num_t; ++t) {
    for (int a : instance.ReadSetOfTransaction(t)) {
      for (int s = 0; s < num_s; ++s) {
        model.AddConstraint(
            ConstraintSense::kGreaterEqual, 0.0,
            {{f.y_var[a][s], 1.0}, {f.x_var[t][s], -1.0}},
            StrFormat("coloc_t%d_a%d_s%d", t, a, s));
      }
    }
  }
  // u linking rows, direction-aware (see header comment).
  for (const IlpFormulation::UVar& u : f.u_vars) {
    const double c1 = cost_model.c1(u.a, u.t);
    const double c3 = cost_model.c3(u.a, u.t);
    const bool pressure_up = c1 < 0.0 || !options.direction_aware_links;
    const bool pressure_down = c1 > 0.0 ||
                               (options.load_balancing && c3 != 0.0) ||
                               !options.direction_aware_links;
    if (pressure_up) {
      model.AddConstraint(ConstraintSense::kLessEqual, 0.0,
                          {{u.column, 1.0}, {f.x_var[u.t][u.s], -1.0}},
                          StrFormat("ux_t%d_a%d_s%d", u.t, u.a, u.s));
      model.AddConstraint(ConstraintSense::kLessEqual, 0.0,
                          {{u.column, 1.0}, {f.y_var[u.a][u.s], -1.0}},
                          StrFormat("uy_t%d_a%d_s%d", u.t, u.a, u.s));
    }
    if (pressure_down) {
      model.AddConstraint(ConstraintSense::kGreaterEqual, -1.0,
                          {{u.column, 1.0},
                           {f.x_var[u.t][u.s], -1.0},
                           {f.y_var[u.a][u.s], -1.0}},
                          StrFormat("uxy_t%d_a%d_s%d", u.t, u.a, u.s));
    }
  }
  // Per-site load rows: Σ c3·x (read pairs) + Σ c3·u + Σ c4·y <= m.
  if (options.load_balancing) {
    for (int s = 0; s < num_s; ++s) {
      std::vector<std::pair<int, double>> terms;
      for (int t = 0; t < num_t; ++t) {
        if (read_c3[t] != 0.0) terms.emplace_back(f.x_var[t][s], read_c3[t]);
      }
      for (const IlpFormulation::UVar& u : f.u_vars) {
        if (u.s != s) continue;
        const double c3 = cost_model.c3(u.a, u.t);
        if (c3 != 0.0) terms.emplace_back(u.column, c3);
      }
      for (int a = 0; a < num_a; ++a) {
        const double c4 = cost_model.c4(a);
        if (c4 != 0.0) terms.emplace_back(f.y_var[a][s], c4);
      }
      terms.emplace_back(f.m_var, -1.0);
      model.AddConstraint(ConstraintSense::kLessEqual, 0.0, std::move(terms),
                          StrFormat("load_s%d", s));
    }
  }
  // Sites numbered by first use (the labelling SolveExhaustively's
  // restricted growth enumerates): x_{t,s} <= Σ_{t'<t} x_{t',s−1}. The
  // terms for t' < s−1 are fixed to 0 above, so the sum starts at s−1.
  if (options.break_symmetry) {
    for (int s = 1; s < num_s; ++s) {
      for (int t = s; t < num_t; ++t) {
        std::vector<std::pair<int, double>> terms;
        terms.emplace_back(f.x_var[t][s], 1.0);
        for (int prev = s - 1; prev < t; ++prev) {
          terms.emplace_back(f.x_var[prev][s - 1], -1.0);
        }
        model.AddConstraint(ConstraintSense::kLessEqual, 0.0, std::move(terms),
                            StrFormat("first_use_t%d_s%d", t, s));
      }
    }
  }
  return f;
}

}  // namespace vpart

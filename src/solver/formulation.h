#ifndef VPART_SOLVER_FORMULATION_H_
#define VPART_SOLVER_FORMULATION_H_

#include <vector>

#include "cost/cost_coefficients.h"
#include "lp/model.h"

namespace vpart {

/// Knobs of the linearized integer program (paper eq. (7)).
struct FormulationOptions {
  int num_sites = 2;

  /// true: Σ_s y_{a,s} ≥ 1 (non-disjoint, attribute replication allowed);
  /// false: Σ_s y_{a,s} = 1 (disjoint partitioning, Table 5's right side).
  bool allow_replication = true;

  /// Include the max-load variable m and the per-site load constraints;
  /// the objective becomes (1−λ)·cost + λ·m (eq. (6) as the paper's §5
  /// text intends it). When false the objective is plain eq. (4)
  /// (equivalent to λ = 0).
  bool load_balancing = true;

  /// Number sites by first use: x_{t,s} = 0 for s > t (fixed by bounds) and
  /// x_{t,s} <= Σ_{t'<t} x_{t',s−1}, so site s opens only after site s−1.
  /// Sites are interchangeable, so every partitioning keeps a labelling
  /// that satisfies these rows, and of the k! labellings of its k used
  /// sites the branch & bound tree keeps one. Off: no symmetry rows.
  bool break_symmetry = true;

  /// Emit u-linking rows only in the direction some objective/load term
  /// actually pushes against (see the class comment). Setting this false
  /// emits all three rows for every u — the textbook linearization — which
  /// is equivalent but larger; kept as an ablation knob (bench_ablation).
  bool direction_aware_links = true;
};

/// The linearized QP of §2.3 plus variable maps for solution translation.
///
/// Variables: binaries x[t][s], y[a][s]; continuous u[t][a][s] ∈ [0,1]
/// created only where they matter (a touched but not read by t, and
/// c1 ≠ 0, or c3 ≠ 0 under load balancing); continuous m ≥ 0 when load
/// balancing is on. Read pairs (φ_{a,t} = 1) have no u: their coloc row
/// y_{a,s} ≥ x_{t,s} makes x·y = x at every integer point, so c1(a,t)
/// sits on x_{t,s}'s objective and c3(a,t) on x_{t,s} in the load rows.
/// Linking rows are emitted direction-aware: u ≤ x, u ≤ y only when some
/// term pushes u up (c1 < 0); u ≥ x + y − 1 only when some term pushes u
/// down (c1 > 0, or c3 > 0 in a load row) — both when both.
struct IlpFormulation {
  LpModel model;
  FormulationOptions options;
  double lambda = 1.0;  // effective λ used in the objective

  std::vector<std::vector<int>> x_var;  // [t][s] -> column
  std::vector<std::vector<int>> y_var;  // [a][s] -> column
  // u columns: parallel arrays (t, a, s) -> column, sorted by (t, a, s).
  struct UVar {
    int t, a, s;
    int column;
  };
  std::vector<UVar> u_vars;
  int m_var = -1;

  /// Reads x/y binaries (threshold 0.5) out of a solver assignment.
  Partitioning ExtractPartitioning(const std::vector<double>& values) const;

  /// Encodes a feasible partitioning as a full model assignment (x, y,
  /// u = x·y, m = max load) for MIP warm starts. When `break_symmetry` is
  /// set, sites are first relabelled in order of first use, the one
  /// labelling the first-use rows admit.
  std::vector<double> EncodePartitioning(const CostCoefficients& cost_model,
                                         const Partitioning& p) const;
};

/// Builds eq. (7) for `cost_model` (which carries p and λ).
IlpFormulation BuildIlpFormulation(const CostCoefficients& cost_model,
                                   const FormulationOptions& options);

}  // namespace vpart

#endif  // VPART_SOLVER_FORMULATION_H_

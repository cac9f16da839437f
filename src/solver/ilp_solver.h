#ifndef VPART_SOLVER_ILP_SOLVER_H_
#define VPART_SOLVER_ILP_SOLVER_H_

#include <functional>
#include <memory>
#include <optional>

#include "cost/cost_coefficients.h"
#include "mip/branch_and_bound.h"
#include "solver/formulation.h"

namespace vpart {

/// Options of the paper's first algorithm — the linearized quadratic
/// program ("QP solver"). The paper ran it with a 30-minute wall clock and
/// a 0.1% MIP gap; both live in `mip`.
struct IlpSolverOptions {
  FormulationOptions formulation;
  MipOptions mip;
  /// Optional incumbent to start from (e.g. an SA solution); dramatically
  /// improves the pruning of large models. The paper's GLPK runs were cold.
  const Partitioning* warm_start = nullptr;
  /// Optional root-relaxation seed basis from a prior same-shaped solve
  /// (forwarded to MipOptions::root_basis; heuristic, falls back cold on
  /// mismatch). Set by the serve layer's shape-level cache hits.
  std::shared_ptr<const Basis> root_basis;
  /// Appendix A: adds ψ_q binaries and p_l·f_q·ψ_q objective terms for
  /// write queries when > 0 (see solver/latency.h). Warm starts are
  /// disabled under latency because the encoding does not cover ψ.
  double latency_penalty = 0.0;
  /// Incumbent stream: every new branch & bound incumbent, decoded to a
  /// validated Partitioning (scalarized = eq. (6), cost = eq. (4)). Fires
  /// on the search threads; see MipOptions::progress for the contract —
  /// tree-level ticks without a new incumbent go to `mip.progress`.
  std::function<void(const Partitioning& partitioning, double scalarized,
                     double cost)>
      on_incumbent;
};

struct IlpSolveResult {
  MipStatus status = MipStatus::kNoSolution;
  /// Objective (4) of the returned partitioning — the "actual cost" every
  /// paper table reports. Only valid when partitioning is set.
  double cost = 0.0;
  /// Eq. (6) value (what the MIP minimized).
  double scalarized = 0.0;
  double seconds = 0.0;
  /// The branch & bound's proof record; its root basis is cached by the
  /// serve layer to seed future same-shaped solves.
  SearchProof proof;
  std::optional<Partitioning> partitioning;

  bool ok() const { return partitioning.has_value(); }
  bool timed_out() const {
    return status == MipStatus::kFeasible || status == MipStatus::kNoSolution;
  }
};

/// Builds eq. (7) and minimizes it with branch & bound.
IlpSolveResult SolveWithIlp(const CostCoefficients& cost_model,
                            const IlpSolverOptions& options);

}  // namespace vpart

#endif  // VPART_SOLVER_ILP_SOLVER_H_

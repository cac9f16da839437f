#include "solver/ilp_solver.h"

#include "solver/latency.h"
#include "util/logging.h"

namespace vpart {

IlpSolveResult SolveWithIlp(const CostCoefficients& cost_model,
                            const IlpSolverOptions& options) {
  IlpFormulation formulation =
      BuildIlpFormulation(cost_model, options.formulation);
  if (options.latency_penalty > 0) {
    AddLatencyToFormulation(cost_model, options.latency_penalty, formulation);
  }

  MipOptions mip_options = options.mip;
  std::vector<double> warm;
  if (options.warm_start != nullptr && options.latency_penalty <= 0) {
    warm = formulation.EncodePartitioning(cost_model, *options.warm_start);
    mip_options.initial_solution = &warm;
  }
  if (options.root_basis != nullptr && options.latency_penalty <= 0) {
    // Latency adds ψ variables the cached basis cannot cover; skip the
    // seed there rather than burn a guaranteed warm-start failure.
    mip_options.root_basis = options.root_basis;
  }

  // Decode tree-search incumbents into partitionings for the caller's
  // stream, chaining any progress callback the caller installed itself.
  if (options.on_incumbent) {
    auto chained = options.mip.progress;
    const bool disjoint = !options.formulation.allow_replication;
    mip_options.progress = [&cost_model, &formulation, &options, chained,
                            disjoint](const MipProgress& progress) {
      if (!progress.incumbent_values.empty()) {
        Partitioning p =
            formulation.ExtractPartitioning(progress.incumbent_values);
        if (ValidatePartitioning(cost_model.instance(), p, disjoint).ok()) {
          const double scalarized = cost_model.ScalarizedObjective(p);
          const double cost = cost_model.Objective(p);
          options.on_incumbent(p, scalarized, cost);
        }
      }
      if (chained) chained(progress);
    };
  }

  MipResult mip = SolveMip(formulation.model, mip_options);

  IlpSolveResult result;
  result.status = mip.status;
  result.seconds = mip.seconds;
  result.proof = std::move(mip.proof);
  if (mip.has_incumbent()) {
    Partitioning p = formulation.ExtractPartitioning(mip.values);
    Status feasible = ValidatePartitioning(
        cost_model.instance(), p, !options.formulation.allow_replication);
    if (!feasible.ok()) {
      VPART_LOG(Warning) << "ILP incumbent failed validation: "
                         << feasible.ToString();
      result.status = MipStatus::kNoSolution;
      return result;
    }
    result.cost = cost_model.Objective(p);
    result.scalarized = options.formulation.load_balancing
                            ? cost_model.ScalarizedObjective(p)
                            : result.cost;
    result.partitioning = std::move(p);
  }
  return result;
}

}  // namespace vpart

#ifndef VPART_SOLVER_LATENCY_H_
#define VPART_SOLVER_LATENCY_H_

#include <vector>

// ComputePsi/LatencyCost and the composable LatencyDecoratedCost wrapper
// live in the cost layer; this header adds the ILP-side pricing.
#include "cost/latency_decorator.h"
#include "solver/formulation.h"

namespace vpart {

/// Adds the ψ_q binaries and their linearized activation constraints to an
/// existing formulation, and adds p_l·f_q·ψ_q to the objective. Uses the
/// identity (1−x_{t,s})·y_{a,s} = y_{a,s} − u_{t,a,s}; a read pair uses
/// x_{t,s} for u (the coloc row makes x·y = x), and any other missing u
/// is created with zero objective and full linking rows.
///
/// Returns the ψ column per query (-1 for queries that can never transfer).
std::vector<int> AddLatencyToFormulation(const CostCoefficients& cost_model,
                                         double latency_penalty,
                                         IlpFormulation& formulation);

}  // namespace vpart

#endif  // VPART_SOLVER_LATENCY_H_

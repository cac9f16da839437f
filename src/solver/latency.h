#ifndef VPART_SOLVER_LATENCY_H_
#define VPART_SOLVER_LATENCY_H_

#include <cstdint>
#include <vector>

#include "cost/cost_coefficients.h"
#include "cost/partitioning.h"
#include "solver/formulation.h"
#include "workload/instance.h"

namespace vpart {

/// Appendix A: network-latency extension. A write query q pays one latency
/// penalty p_l·f_q when it touches any remotely placed replica (remote
/// requests are assumed to go out in parallel, so the count per query is
/// 0/1 — the paper's ψ_q indicator). Reads never pay: single-sitedness
/// keeps them local.
///
/// ψ_q for a concrete partitioning: 1 iff q is a write and some referenced
/// attribute has a replica on a site other than the query's home site.
std::vector<uint8_t> ComputePsi(const Instance& instance,
                                const Partitioning& partitioning);

/// Total latency term p_l · Σ_q f_q·ψ_q. The ILP prices it exactly
/// (AddLatencyToFormulation); every response reports it for its layout
/// (PriceAdvice), and the certifier recomputes it.
double LatencyCost(const Instance& instance, const Partitioning& partitioning,
                   double latency_penalty);

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

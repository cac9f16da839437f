#ifndef VPART_SOLVER_ADVISOR_H_
#define VPART_SOLVER_ADVISOR_H_

#include <string>

#include "cost/cost_coefficients.h"

namespace vpart {

/// The recommendation of one solve: what Advise() (api/advise.h) returns
/// in AdviseResponse::result, and what the batch advisor reports per table.
struct AdvisorResult {
  Partitioning partitioning;
  /// Objective (4) of the recommendation and of the single-site baseline.
  double cost = 0.0;
  double single_site_cost = 0.0;
  /// 1 − cost/single_site_cost, the paper's headline metric.
  double reduction_percent = 0.0;
  CostBreakdown breakdown;
  /// Appendix-A latency exposure p_l·Σ f_q·ψ_q of the recommendation
  /// (0 when latency_penalty is 0).
  double latency_cost = 0.0;
  std::string algorithm_used;
  double seconds = 0.0;
  /// Set when the ILP path proved optimality within the gap.
  bool proven_optimal = false;
};

}  // namespace vpart

#endif  // VPART_SOLVER_ADVISOR_H_

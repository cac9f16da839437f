#ifndef VPART_COST_COST_MODEL_REGISTRY_H_
#define VPART_COST_COST_MODEL_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "cost/cost_coefficients.h"
#include "cost/cost_model_spec.h"
#include "util/status.h"

namespace vpart {

/// What a cost-model backend can express; the advise orchestrator queries
/// these to reject solver/model mismatches up front instead of producing
/// silently-wrong numbers.
struct CostBackendCapabilities {
  /// The transfer term prices bytes shipped between networked sites. The
  /// Appendix-A latency term (AdviseRequest::latency_penalty) models
  /// network round trips and only applies to such backends — requesting
  /// it against e.g. the local-disk backend is an InvalidArgument.
  bool network_transfer = true;
  /// Weights are additive in attribute width, so the §4 attribute
  /// grouping (which merges identically-accessed attributes by summing
  /// widths) preserves the objective exactly. Backends with line/page
  /// rounding are not additive; the advise orchestrator skips grouping
  /// for them (with a warning) instead of optimizing a distorted
  /// objective.
  bool additive_widths = true;
  /// One-line scenario summary for --help and error messages.
  const char* description = "";
};

/// The three built-in cost-model backends (paper, cacheline, disk_page)
/// behind the request's `cost_model.backend` name. The set is fixed; the
/// process-wide instance answers every lookup, from any thread.
class CostModelRegistry {
 public:
  static const CostModelRegistry& Global();

  bool Contains(const std::string& name) const;
  StatusOr<CostBackendCapabilities> Capabilities(
      const std::string& name) const;

  /// Backend names, sorted.
  std::vector<std::string> Names() const;

  /// Resolves spec.backend and builds the coefficients, validating the
  /// backend's option block (InvalidArgument). Unknown names fail with
  /// kNotFound listing the backends (consistent with the unknown-solver
  /// error).
  StatusOr<std::shared_ptr<const CostCoefficients>> Build(
      std::shared_ptr<const Instance> instance, const CostParams& params,
      const CostModelSpec& spec) const;
};

}  // namespace vpart

#endif  // VPART_COST_COST_MODEL_REGISTRY_H_

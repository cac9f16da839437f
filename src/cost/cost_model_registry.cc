#include "cost/cost_model_registry.h"

#include <array>
#include <utility>

#include "cost/cost_backends.h"
#include "cost/cost_model.h"
#include "util/string_util.h"

namespace vpart {
namespace {

Status ValidatePositive(const char* name, double value) {
  if (!(value > 0.0)) {
    return InvalidArgumentError(StrFormat("%s must be > 0 (got %g)", name,
                                          value));
  }
  return Status::Ok();
}

Status ValidateNonNegative(const char* name, double value) {
  if (!(value >= 0.0)) {
    return InvalidArgumentError(StrFormat("%s must be >= 0 (got %g)", name,
                                          value));
  }
  return Status::Ok();
}

using BuiltModel = StatusOr<std::shared_ptr<const CostCoefficients>>;

BuiltModel BuildPaper(std::shared_ptr<const Instance> instance,
                      const CostParams& params, const CostModelSpec&) {
  return std::shared_ptr<const CostCoefficients>(
      std::make_shared<CostModel>(std::move(instance), params));
}

BuiltModel BuildCacheline(std::shared_ptr<const Instance> instance,
                          const CostParams& params,
                          const CostModelSpec& spec) {
  const CachelineCostOptions& o = spec.cacheline;
  VPART_RETURN_IF_ERROR(
      ValidatePositive("cacheline.line_bytes", o.line_bytes));
  VPART_RETURN_IF_ERROR(ValidateNonNegative("cacheline.row_header_bytes",
                                            o.row_header_bytes));
  VPART_RETURN_IF_ERROR(
      ValidateNonNegative("cacheline.read_factor", o.read_factor));
  VPART_RETURN_IF_ERROR(
      ValidateNonNegative("cacheline.write_factor", o.write_factor));
  VPART_RETURN_IF_ERROR(ValidateNonNegative("cacheline.transfer_header_bytes",
                                            o.transfer_header_bytes));
  return std::shared_ptr<const CostCoefficients>(
      std::make_shared<CachelineCostModel>(std::move(instance), params, o));
}

BuiltModel BuildDiskPage(std::shared_ptr<const Instance> instance,
                         const CostParams& params,
                         const CostModelSpec& spec) {
  const DiskPageCostOptions& o = spec.disk_page;
  VPART_RETURN_IF_ERROR(ValidatePositive("disk_page.page_bytes", o.page_bytes));
  VPART_RETURN_IF_ERROR(
      ValidateNonNegative("disk_page.seek_pages", o.seek_pages));
  VPART_RETURN_IF_ERROR(
      ValidateNonNegative("disk_page.write_factor", o.write_factor));
  return std::shared_ptr<const CostCoefficients>(
      std::make_shared<DiskPageCostModel>(std::move(instance), params, o));
}

struct Backend {
  const char* name;
  CostBackendCapabilities capabilities;
  BuiltModel (*build)(std::shared_ptr<const Instance> instance,
                      const CostParams& params, const CostModelSpec& spec);
};

/// The backends, sorted by name.
constexpr std::array<Backend, 3> kBackends = {{
    {kCostModelCacheline,
     {/*network_transfer=*/true,
      /*additive_widths=*/false,  // whole-line rounding per attribute
      "cache-line-granular main-memory store with read/write asymmetry"},
     BuildCacheline},
    {kCostModelDiskPage,
     {/*network_transfer=*/false,  // local/SAN row store on disk
      /*additive_widths=*/false,   // whole-page rounding + seeks
      "Navathe-style block-access model for a row store on disk"},
     BuildDiskPage},
    {kCostModelPaper,
     {/*network_transfer=*/true, /*additive_widths=*/true,
      "the paper's byte-exact main-memory model (W = w*f*n)"},
     BuildPaper},
}};

const Backend* FindBackend(const std::string& name) {
  for (const Backend& backend : kBackends) {
    if (name == backend.name) return &backend;
  }
  return nullptr;
}

}  // namespace

Status ValidateCostModelSpec(const CostModelSpec& spec) {
  if (spec.backend.empty()) {
    return InvalidArgumentError("cost_model.backend must not be empty");
  }
  // Only the selected backend's block applies ("unrelated blocks are
  // ignored" — cost_model_spec.h); its build function re-validates it.
  if (spec.backend == kCostModelCacheline) {
    VPART_RETURN_IF_ERROR(
        ValidatePositive("cacheline.line_bytes", spec.cacheline.line_bytes));
  }
  if (spec.backend == kCostModelDiskPage) {
    VPART_RETURN_IF_ERROR(
        ValidatePositive("disk_page.page_bytes", spec.disk_page.page_bytes));
  }
  return Status::Ok();
}

const CostModelRegistry& CostModelRegistry::Global() {
  static const CostModelRegistry registry{};
  return registry;
}

bool CostModelRegistry::Contains(const std::string& name) const {
  return FindBackend(name) != nullptr;
}

StatusOr<CostBackendCapabilities> CostModelRegistry::Capabilities(
    const std::string& name) const {
  const Backend* backend = FindBackend(name);
  if (backend == nullptr) {
    return NotFoundError("unknown cost model '" + name + "'");
  }
  return backend->capabilities;
}

std::vector<std::string> CostModelRegistry::Names() const {
  std::vector<std::string> names;
  for (const Backend& backend : kBackends) names.emplace_back(backend.name);
  return names;
}

StatusOr<std::shared_ptr<const CostCoefficients>> CostModelRegistry::Build(
    std::shared_ptr<const Instance> instance, const CostParams& params,
    const CostModelSpec& spec) const {
  if (instance == nullptr) {
    return InvalidArgumentError("cost model needs an instance");
  }
  const Backend* backend = FindBackend(spec.backend);
  if (backend == nullptr) {
    return NotFoundError("unknown cost model '" + spec.backend +
                         "' (available: " + JoinStrings(Names(), ", ") + ")");
  }
  return backend->build(std::move(instance), params, spec);
}

}  // namespace vpart

#ifndef VPART_COST_COST_MODEL_SPEC_H_
#define VPART_COST_COST_MODEL_SPEC_H_

#include <string>

#include "util/status.h"

namespace vpart {

/// Cost-model backend names (see cost/cost_model_registry.h).
inline constexpr const char* kCostModelPaper = "paper";
inline constexpr const char* kCostModelCacheline = "cacheline";
inline constexpr const char* kCostModelDiskPage = "disk_page";

/// Knobs of the "cacheline" backend: a main-memory store whose storage
/// layer moves whole cache lines, generalizing the paper's byte-exact model
/// (§2's W_{a,q}) with line-granular access, per-row framing overhead, and
/// read/write asymmetry. With line_bytes -> 0, header 0 and factors 1 it
/// degenerates to the paper's physics.
struct CachelineCostOptions {
  /// Cache line (coherence granule) size; every per-row access to an
  /// attribute pays whole lines: ceil((row_header_bytes + w_a)/line_bytes).
  double line_bytes = 64.0;
  /// Per-row framing the storage layer co-locates with each attribute
  /// fragment (null bitmap, tuple header share, padding).
  double row_header_bytes = 4.0;
  /// Storage-layer multiplier for read accesses.
  double read_factor = 1.0;
  /// Storage-layer multiplier for write accesses: read-modify-write plus
  /// coherence invalidation makes stores more expensive than loads.
  double write_factor = 2.0;
  /// Per-value framing added to each attribute shipped between sites
  /// (serialization header); the wire itself stays byte-granular.
  double transfer_header_bytes = 0.0;
};

/// Knobs of the "disk_page" backend: classic Navathe-style vertical
/// partitioning for a row store on disk — the storage layer fetches whole
/// pages, every access pays a seek, and writes are amplified by logging.
/// Network transfer is priced in raw bytes; the scenario targets local or
/// SAN-attached placement, so requests usually set cost.p low or 0.
struct DiskPageCostOptions {
  /// Disk page (block) size; accessing n rows of attribute a transfers
  /// ceil(n·w_a / page_bytes) pages.
  double page_bytes = 8192.0;
  /// Per-access positioning overhead in page-transfer units (seek +
  /// rotational delay expressed as equivalent page reads).
  double seek_pages = 1.0;
  /// Write amplification (write-ahead log + in-place page write).
  double write_factor = 2.0;
};

/// Typed cost-model selection carried by AdviseRequest, mirroring the
/// solver side: a backend name plus per-backend option blocks.
/// Each block only applies when the named backend runs; unrelated blocks
/// are ignored. JSON binding (with unknown-key rejection) lives in
/// api/request_json.cc.
struct CostModelSpec {
  /// Backend name: "paper", "cacheline" or "disk_page".
  std::string backend = kCostModelPaper;
  CachelineCostOptions cacheline;
  DiskPageCostOptions disk_page;
};

/// Structural validation of the per-backend blocks (positive sizes,
/// non-negative factors). Backend-name resolution happens in
/// CostModelRegistry.
Status ValidateCostModelSpec(const CostModelSpec& spec);

}  // namespace vpart

#endif  // VPART_COST_COST_MODEL_SPEC_H_

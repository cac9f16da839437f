#ifndef VPART_DIST_WIRE_MESSAGES_H_
#define VPART_DIST_WIRE_MESSAGES_H_

#include <memory>
#include <string>
#include <vector>

#include "api/json.h"
#include "lp/simplex.h"
#include "lp/solve_stats.h"
#include "mip/branch_and_bound.h"
#include "mip/frontier.h"
#include "solver/advisor.h"
#include "util/status.h"
#include "workload/instance.h"

namespace vpart {

/// Typed JSON messages of the coordinator/worker wire (DESIGN.md
/// "Distributed layer" documents the full conversation). Every message is
/// an object with a "type" tag:
///
///   coordinator -> worker:
///     job        one per connection: the full request document (instance
///                embedded as .vpi text) plus the sharding mode
///     unit       one work unit — a table index, or a B&B frontier node
///                (bound + fixings + parent basis)
///     incumbent  global incumbent objective broadcast; workers prune
///                against it via MipOptions::external_upper_bound
///     shutdown   drain and exit
///   worker -> coordinator:
///     hello        first message after connecting ({"pid": ...})
///     heartbeat    liveness tick (the coordinator requeues a worker's
///                  units after `heartbeat_timeout_seconds` of silence)
///     incumbent    a new incumbent found mid-unit ({"objective", "values"})
///     unit_result  a finished unit (subtree: MipResult; table: AdvisorResult)
///     unit_error   a unit the worker could not process
///
/// Numbers round-trip exactly: the JSON layer prints doubles with %.17g,
/// so objectives and bounds survive the wire bit-for-bit — the foundation
/// of the distributed-equals-local objective guarantee.

inline constexpr const char* kDistMsgJob = "job";
inline constexpr const char* kDistMsgUnit = "unit";
inline constexpr const char* kDistMsgIncumbent = "incumbent";
inline constexpr const char* kDistMsgShutdown = "shutdown";
inline constexpr const char* kDistMsgHello = "hello";
inline constexpr const char* kDistMsgHeartbeat = "heartbeat";
inline constexpr const char* kDistMsgUnitResult = "unit_result";
inline constexpr const char* kDistMsgUnitError = "unit_error";

/// The "type" tag, or "" when absent/malformed.
std::string DistMessageType(const JsonValue& message);

JsonValue MakeDistMessage(const std::string& type);

/// Integer member `key` of a peer message, by request_json's
/// ReadLong rule (JsonInteger): `fallback` when absent, InvalidArgumentError
/// unless it is an integer within ±2^53. The one reader of peer integers,
/// so no peer double reaches an integer cast unchecked.
StatusOr<long> LongField(const JsonValue& message, const char* key,
                         long fallback);

/// Basis snapshots ship as their raw parts (lp/simplex.h accessors); a
/// null/invalid basis encodes as JSON null and decodes back to null.
JsonValue EncodeBasis(const std::shared_ptr<const Basis>& basis);
StatusOr<std::shared_ptr<const Basis>> DecodeBasis(const JsonValue& value);

/// Frontier fixings as [[column, lower, upper], ...]. Decoding rejects a
/// column or basis row that is not an integer in [0, INT_MAX].
JsonValue EncodeFixings(const std::vector<BoundFix>& fixings);
StatusOr<std::vector<BoundFix>> DecodeFixings(const JsonValue& value);

JsonValue EncodeLpStats(const LpSolveStats& stats);
StatusOr<LpSolveStats> DecodeLpStats(const JsonValue& value);

/// The subtree-mode unit answer: everything the coordinator's proof
/// aggregation and telemetry need from a worker's MipResult. `values` ships
/// only while the result carries an incumbent.
JsonValue EncodeMipResult(const MipResult& result);
StatusOr<MipResult> DecodeMipResult(const JsonValue& value);

/// The table-mode unit answer. The partitioning rides as partitioning_io
/// text keyed by the subinstance's names, so the decoder needs the same
/// subinstance the solve ran on.
JsonValue EncodeAdvisorResult(const Instance& instance,
                              const AdvisorResult& result);
StatusOr<AdvisorResult> DecodeAdvisorResult(const Instance& instance,
                                            const JsonValue& value);

}  // namespace vpart

#endif  // VPART_DIST_WIRE_MESSAGES_H_

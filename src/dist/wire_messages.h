#ifndef VPART_DIST_WIRE_MESSAGES_H_
#define VPART_DIST_WIRE_MESSAGES_H_

#include <string>

#include "api/json.h"
#include "solver/advisor.h"
#include "util/status.h"
#include "workload/instance.h"

namespace vpart {

/// Typed JSON messages of the coordinator/worker wire (DESIGN.md
/// "Distributed layer" documents the full conversation). Every message is
/// an object with a "type" tag:
///
///   coordinator -> worker:
///     job        one per session: the full request document (instance
///                embedded as .vpi text)
///     unit       one work unit: a table index
///     shutdown   drain and exit
///   worker -> coordinator:
///     hello        first message after connecting ({"pid": ...})
///     heartbeat    liveness tick (the coordinator requeues a worker's
///                  units after `heartbeat_timeout_seconds` of silence)
///     unit_result  a finished unit (the table's AdvisorResult)
///     unit_error   a unit the worker could not process
///
/// Numbers round-trip exactly: the JSON layer prints doubles with %.17g,
/// so costs survive the wire bit-for-bit — the foundation of the
/// distributed-equals-local guarantee.

inline constexpr const char* kDistMsgJob = "job";
inline constexpr const char* kDistMsgUnit = "unit";
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

/// A unit's answer. The partitioning rides as partitioning_io
/// text keyed by the subinstance's names, so the decoder needs the same
/// subinstance the solve ran on.
JsonValue EncodeAdvisorResult(const Instance& instance,
                              const AdvisorResult& result);
StatusOr<AdvisorResult> DecodeAdvisorResult(const Instance& instance,
                                            const JsonValue& value);

}  // namespace vpart

#endif  // VPART_DIST_WIRE_MESSAGES_H_

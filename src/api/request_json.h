#ifndef VPART_API_REQUEST_JSON_H_
#define VPART_API_REQUEST_JSON_H_

#include <string>
#include <vector>

#include "api/advise.h"
#include "api/json.h"
#include "util/status.h"
#include "workload/instance.h"

namespace vpart {

/// A complete service request as carried by `vpart_cli`: where the
/// instance comes from plus the AdviseRequest and output switches.
///
/// JSON shape (unknown keys are rejected — a typo must not silently fall
/// back to a default):
///
///   {
///     "instance": {"builtin": "tpcc"}            // or {"file": "x.vpi"}
///                                                // or {"text": "..."}
///                                                // or {"random": "rndAt8x15"}
///     "solver": "auto",                          // solver name
///     "num_sites": 3, "num_threads": 4,
///     "cost": {"p": 8, "lambda": 0.1},
///     "cost_model": {"backend": "paper",          // or "cacheline",
///                                                 // "disk_page"
///       "cacheline": {"line_bytes": 64, "row_header_bytes": 4,
///                     "read_factor": 1, "write_factor": 2,
///                     "transfer_header_bytes": 0},
///       "disk_page": {"page_bytes": 8192, "seek_pages": 1,
///                     "write_factor": 2}},
///     "allow_replication": true,
///     "use_attribute_grouping": true,
///     "latency_penalty": 0,
///     "time_limit_seconds": 5,
///     "seed": 1,
///     "ilp": {"mip_gap": 0.001, "bnb_threads": 0, "enable_dive": true,
///             "warm_start_seconds": 2},
///     "sa": {"max_restarts": 6, "slice_seconds": 0.5},
///     "exhaustive": {"max_candidates": 5000000},
///     "incremental": {"initial_fraction": 0.2, "batches": 4},
///     "portfolio": {"run_ilp": true, "run_sa": true,
///                   "run_incremental": true},
///     "batch": false,                            // per-table whole-schema
///     "emit_partitioning": true,
///     "emit_events": false,
///     "serve": {"id": "req-1", "deadline_seconds": 10,
///               "qos": "interactive"}             // daemon-mode envelope
///   }
///
/// Only "instance" is required; everything else defaults as above.

/// Admission class for daemon-mode requests: interactive requests are
/// dequeued ahead of batch ones when the worker pool is contended.
enum class ServeQos { kInteractive, kBatch };

/// The "serve" envelope: daemon-only fields ignored by the one-shot CLI.
struct ServeRequestOptions {
  /// Client-chosen id echoed back in the response ("" = server-assigned).
  std::string id;
  /// Admission deadline: the request is dropped (typed deadline_exceeded
  /// error) if it cannot finish within this budget. <= 0 means the server
  /// default applies.
  double deadline_seconds = 0;
  ServeQos qos = ServeQos::kInteractive;
};

struct CliRequest {
  // Exactly one of these is non-empty.
  std::string instance_file;
  std::string instance_text;
  std::string builtin;  // "tpcc"
  std::string random;   // named class, e.g. "rndAt8x15" (Table 2)

  AdviseRequest request;
  /// Whole-schema mode: one independent solve per table through the
  /// BatchAdvisor (request.num_threads tables advised concurrently). The
  /// only mode `vpart_cli --coordinator` runs: it farms the tables out to
  /// worker processes instead.
  bool batch = false;
  bool emit_partitioning = true;
  bool emit_events = false;
  ServeRequestOptions serve;
};

/// Parses and validates the JSON text above.
StatusOr<CliRequest> ParseCliRequest(const std::string& json_text);

/// Materializes the instance a CliRequest names.
StatusOr<Instance> LoadCliInstance(const CliRequest& request);

/// Serializes a CliRequest back into the JSON document ParseCliRequest
/// accepts — the exact inverse for every field the schema comment above
/// documents (the in-process-only WarmSeed does not serialize). The
/// coordinator uses this to ship one self-contained job document (with the
/// instance embedded as text) to worker processes, so workers re-validate
/// through the same parser every other entry point uses.
JsonValue CliRequestToJson(const CliRequest& request);

/// Response document for one advise run. `events` may be empty (attach the
/// stream a session recorded to honor emit_events).
JsonValue AdviseResponseToJson(const Instance& instance,
                               const AdviseResponse& response,
                               bool emit_partitioning,
                               const std::vector<ProgressEvent>& events);

/// Serializes a partitioning as name-keyed JSON (transactions -> site,
/// table.attribute -> sites), mirroring partitioning_io's text format.
JsonValue PartitioningToJson(const Instance& instance,
                             const Partitioning& partitioning);

struct BatchAdvisorResult;  // engine/batch_advisor.h

/// Response document for a whole-schema batch run (per-table advice plus
/// the combined layout), shared by the CLI and the serve daemon. Obs
/// telemetry is the caller's to attach (it comes from process-global
/// registries the serializer must not snapshot on its own).
JsonValue BatchAdvisorResultToJson(const Instance& instance,
                                   const BatchAdvisorResult& result,
                                   bool emit_partitioning);

JsonValue ProgressEventToJson(const ProgressEvent& event);

}  // namespace vpart

#endif  // VPART_API_REQUEST_JSON_H_

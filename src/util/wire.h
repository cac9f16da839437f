#ifndef VPART_UTIL_WIRE_H_
#define VPART_UTIL_WIRE_H_

#include <cstdint>
#include <string>

#include "api/json.h"
#include "util/status.h"

namespace vpart {

/// Shared wire framing of every vpart socket protocol — the advisor daemon
/// (serve/server.h) and the distributed coordinator/worker runtime
/// (dist/coordinator.h). Every message — request or response — is one FRAME
/// on a Unix domain stream socket:
///
///   [u32 length, little-endian][length bytes of UTF-8 JSON]
///
/// One request frame yields exactly one response frame on the same
/// connection (pipelining is allowed; responses may interleave in
/// completion order and carry the request's `serve.id` for correlation).
/// Errors are typed envelopes:
///
///   {"error": {"code": "overloaded", "message": "...", "id": "req-7"}}
///
/// with `code` one of the kServeErr* constants below.

/// Hard cap on a frame's payload; a length above this is a protocol error
/// (the connection is dropped — a corrupt length prefix would otherwise
/// stall the reader for gigabytes).
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;  // 16 MiB

/// Typed error codes of the error envelope.
inline constexpr const char* kServeErrInvalidRequest = "invalid_request";
inline constexpr const char* kServeErrProtocol = "protocol_error";
inline constexpr const char* kServeErrOverloaded = "overloaded";
inline constexpr const char* kServeErrDeadline = "deadline_exceeded";
inline constexpr const char* kServeErrCancelled = "cancelled";
inline constexpr const char* kServeErrInternal = "internal";
inline constexpr const char* kServeErrShuttingDown = "shutting_down";

/// Writes one frame (length prefix + payload), handling partial writes and
/// EINTR. Fails with InternalError on socket errors and InvalidArgument
/// when the payload exceeds kMaxFrameBytes.
Status WriteFrame(int fd, const std::string& payload);

/// Reads one frame. Distinguishes three outcomes:
///  * a payload — the frame's bytes;
///  * clean end of stream BEFORE any byte of a frame — NotFound
///    ("connection closed"); the peer hung up between messages;
///  * anything else (truncated frame, oversized length, socket error) —
///    InvalidArgument / InternalError.
StatusOr<std::string> ReadFrame(int fd);

/// True when `status` is ReadFrame's clean-EOF outcome.
bool IsCleanClose(const Status& status);

/// Builds the typed error envelope. `id` is echoed when non-empty so
/// pipelining clients can correlate.
JsonValue MakeServeError(const std::string& code, const std::string& message,
                         const std::string& id = "");

/// Maps an internal Status onto a wire error code (invalid argument ->
/// invalid_request, deadline -> deadline_exceeded, ... default internal).
const char* ServeErrorCodeFor(const Status& status);

/// Binds a Unix domain stream socket at `path` and listens on it; a stale
/// socket file left there by a crashed process is unlinked first. Returns
/// the listening descriptor. An empty or over-long path is
/// InvalidArgument; a failing system call is InternalError naming the
/// path.
StatusOr<int> ListenUnixSocket(const std::string& path);

/// Connects a Unix domain stream socket to `path` and returns the
/// descriptor. Errors as ListenUnixSocket's.
StatusOr<int> ConnectUnixSocket(const std::string& path);

}  // namespace vpart

#endif  // VPART_UTIL_WIRE_H_

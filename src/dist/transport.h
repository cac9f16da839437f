#ifndef VPART_DIST_TRANSPORT_H_
#define VPART_DIST_TRANSPORT_H_

#include <memory>
#include <string>

#include "api/json.h"
#include "util/status.h"

namespace vpart {

/// Message transport between the distributed coordinator and its workers
/// (dist/coordinator.h / dist/worker.h). The contract is deliberately
/// narrow — ordered, reliable, bidirectional JSON messages — so transports
/// other than the built-in Unix-domain-socket one (TCP, shared memory, an
/// RDMA verbs backend) can slot in without touching the coordination
/// logic. The built-in implementation frames messages with the shared
/// [u32-LE length][JSON] framing of util/wire.h, the same bytes the serve
/// daemon speaks.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one message. Thread-safe: a worker's heartbeat thread and its
  /// unit results may write concurrently.
  virtual Status Send(const JsonValue& message) = 0;

  /// Blocks for the next message. Single reader. A clean peer close
  /// surfaces as NotFound("connection closed") (see wire.h IsCleanClose);
  /// malformed frames or JSON surface as InvalidArgument.
  virtual StatusOr<JsonValue> Receive() = 0;

  /// Aborts in-flight and future Send/Receive calls (they fail promptly);
  /// safe to call from any thread, including while Receive blocks.
  virtual void Abort() = 0;

  virtual void Close() = 0;
};

/// Accepts coordinator-side connections.
class TransportListener {
 public:
  virtual ~TransportListener() = default;

  /// Blocks for the next worker connection; fails once Close() is called.
  virtual StatusOr<std::unique_ptr<Transport>> Accept() = 0;

  /// Stops accepting and unblocks pending Accept() calls.
  virtual void Close() = 0;

  /// Address workers connect to (the socket path for UDS).
  virtual const std::string& address() const = 0;
};

/// Binds a Unix domain stream socket at `path` (an existing stale socket
/// file is unlinked first) and listens for workers.
StatusOr<std::unique_ptr<TransportListener>> ListenUds(
    const std::string& path);

/// Connects a worker to a coordinator's socket.
StatusOr<std::unique_ptr<Transport>> ConnectUds(const std::string& path);

}  // namespace vpart

#endif  // VPART_DIST_TRANSPORT_H_

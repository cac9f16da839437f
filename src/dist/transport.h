#ifndef VPART_DIST_TRANSPORT_H_
#define VPART_DIST_TRANSPORT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "api/json.h"
#include "util/status.h"

namespace vpart {

/// Message transport between the distributed coordinator and its workers
/// (dist/coordinator.h / dist/worker.h): ordered, reliable, bidirectional
/// JSON messages over one connected Unix domain stream socket, framed with
/// the shared [u32-LE length][JSON] framing of util/wire.h, the same bytes
/// the serve daemon speaks.
class Transport {
 public:
  /// Takes ownership of the connected socket `fd`.
  explicit Transport(int fd) : fd_(fd) {}
  ~Transport() { Close(); }

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Sends one message. Thread-safe: a worker's heartbeat thread and its
  /// unit results may write concurrently (sends serialize under a mutex,
  /// so frames never interleave).
  Status Send(const JsonValue& message);

  /// Blocks for the next message. Single reader, so reads run unlocked. A
  /// clean peer close surfaces as NotFound("connection closed") (see
  /// wire.h IsCleanClose); malformed frames or JSON surface as
  /// InvalidArgument.
  StatusOr<JsonValue> Receive();

  /// Aborts in-flight and future Send/Receive calls (they fail promptly);
  /// safe to call from any thread, including while Receive blocks.
  void Abort();

  void Close();

 private:
  std::atomic<int> fd_;
  std::mutex write_mu_;
};

/// Accepts coordinator-side connections on a listening Unix socket.
class TransportListener {
 public:
  /// Takes ownership of the listening socket `fd` bound at `path`.
  TransportListener(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}
  ~TransportListener() { Close(); }

  TransportListener(const TransportListener&) = delete;
  TransportListener& operator=(const TransportListener&) = delete;

  /// Blocks for the next worker connection; fails once Close() is called.
  StatusOr<std::unique_ptr<Transport>> Accept();

  /// Stops accepting, unblocks pending Accept() calls and unlinks the
  /// socket file.
  void Close();

 private:
  std::atomic<int> fd_;
  std::string path_;
};

/// Binds a Unix domain stream socket at `path` (an existing stale socket
/// file is unlinked first) and listens for workers.
StatusOr<std::unique_ptr<TransportListener>> ListenUds(
    const std::string& path);

/// Connects a worker to a coordinator's socket.
StatusOr<std::unique_ptr<Transport>> ConnectUds(const std::string& path);

}  // namespace vpart

#endif  // VPART_DIST_TRANSPORT_H_

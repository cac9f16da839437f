#include "dist/transport.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "util/wire.h"

namespace vpart {

Status Transport::Send(const JsonValue& message) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return InternalError("transport closed");
  return WriteFrame(fd, message.Serialize());
}

StatusOr<JsonValue> Transport::Receive() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return NotFoundError("connection closed");
  StatusOr<std::string> frame = ReadFrame(fd);
  VPART_RETURN_IF_ERROR(frame.status());
  return JsonValue::Parse(*frame);
}

void Transport::Abort() {
  // shutdown() (not close) wakes a blocked Receive without freeing the
  // descriptor under it — the reader thread still owns the fd value.
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void Transport::Close() {
  std::lock_guard<std::mutex> lock(write_mu_);
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

StatusOr<std::unique_ptr<Transport>> TransportListener::Accept() {
  while (true) {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return NotFoundError("listener closed");
    const int client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) return std::make_unique<Transport>(client);
    if (errno == EINTR) continue;
    return InternalError(std::string("accept failed: ") +
                         std::strerror(errno));
  }
}

void TransportListener::Close() {
  // shutdown() wakes a blocked Accept (it fails with EINVAL); close()
  // after the exchange so a concurrent Accept never races the free.
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
    ::unlink(path_.c_str());
  }
}

StatusOr<std::unique_ptr<TransportListener>> ListenUds(
    const std::string& path) {
  StatusOr<int> fd = ListenUnixSocket(path);
  VPART_RETURN_IF_ERROR(fd.status());
  return std::make_unique<TransportListener>(*fd, path);
}

StatusOr<std::unique_ptr<Transport>> ConnectUds(const std::string& path) {
  StatusOr<int> fd = ConnectUnixSocket(path);
  VPART_RETURN_IF_ERROR(fd.status());
  return std::make_unique<Transport>(*fd);
}

}  // namespace vpart

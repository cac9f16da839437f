#include "util/wire.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

namespace vpart {
namespace {

/// send() with MSG_NOSIGNAL so a peer that hung up yields EPIPE instead of
/// killing the process with SIGPIPE.
Status WriteAll(int fd, const char* data, size_t length) {
  size_t written = 0;
  while (written < length) {
    const ssize_t n =
        ::send(fd, data + written, length - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return InternalError(std::string("socket write failed: ") +
                           std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Reads exactly `length` bytes. `*clean_eof` is set when the stream ends
/// before the FIRST byte (peer closed between frames).
Status ReadAll(int fd, char* data, size_t length, bool* clean_eof) {
  size_t got = 0;
  while (got < length) {
    const ssize_t n = ::recv(fd, data + got, length - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return InternalError(std::string("socket read failed: ") +
                           std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return NotFoundError("connection closed");
      }
      return InvalidArgumentError("truncated frame: peer closed mid-message");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// The socket address of `path`, or InvalidArgument when it is empty or
/// does not fit sun_path.
StatusOr<sockaddr_un> UnixAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty()) return InvalidArgumentError("socket path is empty");
  if (path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError(
        "socket path too long for AF_UNIX (max " +
        std::to_string(sizeof(addr.sun_path) - 1) + " bytes): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Closes `fd` and returns InternalError "<call>(<path>) failed: <errno>".
Status CloseWithError(int fd, const char* call, const std::string& path) {
  const std::string detail = std::strerror(errno);
  ::close(fd);
  return InternalError(std::string(call) + "(" + path + ") failed: " +
                       detail);
}

/// A new, unbound Unix domain stream socket.
StatusOr<int> NewUnixSocket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError(std::string("socket() failed: ") +
                         std::strerror(errno));
  }
  return fd;
}

}  // namespace

Status WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return InvalidArgumentError("frame payload exceeds kMaxFrameBytes");
  }
  const uint32_t length = static_cast<uint32_t>(payload.size());
  char prefix[4] = {static_cast<char>(length & 0xff),
                    static_cast<char>((length >> 8) & 0xff),
                    static_cast<char>((length >> 16) & 0xff),
                    static_cast<char>((length >> 24) & 0xff)};
  VPART_RETURN_IF_ERROR(WriteAll(fd, prefix, sizeof(prefix)));
  return WriteAll(fd, payload.data(), payload.size());
}

StatusOr<std::string> ReadFrame(int fd) {
  char prefix[4];
  bool clean_eof = false;
  VPART_RETURN_IF_ERROR(ReadAll(fd, prefix, sizeof(prefix), &clean_eof));
  const uint32_t length = static_cast<uint32_t>(
      static_cast<unsigned char>(prefix[0]) |
      (static_cast<unsigned char>(prefix[1]) << 8) |
      (static_cast<unsigned char>(prefix[2]) << 16) |
      (static_cast<unsigned char>(prefix[3]) << 24));
  if (length > kMaxFrameBytes) {
    return InvalidArgumentError("frame length " + std::to_string(length) +
                                " exceeds the protocol limit");
  }
  std::string payload(length, '\0');
  if (length > 0) {
    VPART_RETURN_IF_ERROR(
        ReadAll(fd, payload.data(), payload.size(), nullptr));
  }
  return payload;
}

bool IsCleanClose(const Status& status) {
  return status.code() == StatusCode::kNotFound &&
         status.message() == "connection closed";
}

JsonValue MakeServeError(const std::string& code, const std::string& message,
                         const std::string& id) {
  JsonValue error = JsonValue::MakeObject();
  error.Set("code", code);
  error.Set("message", message);
  if (!id.empty()) error.Set("id", id);
  JsonValue envelope = JsonValue::MakeObject();
  envelope.Set("error", std::move(error));
  return envelope;
}

const char* ServeErrorCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
      return kServeErrInvalidRequest;
    case StatusCode::kDeadlineExceeded:
      return kServeErrDeadline;
    case StatusCode::kFailedPrecondition:
      return kServeErrOverloaded;
    default:
      return kServeErrInternal;
  }
}

StatusOr<int> ListenUnixSocket(const std::string& path) {
  StatusOr<sockaddr_un> addr = UnixAddress(path);
  VPART_RETURN_IF_ERROR(addr.status());
  StatusOr<int> fd = NewUnixSocket();
  VPART_RETURN_IF_ERROR(fd.status());
  ::unlink(path.c_str());  // a stale socket file would make bind fail
  if (::bind(*fd, reinterpret_cast<const sockaddr*>(&*addr),
             sizeof(*addr)) != 0) {
    return CloseWithError(*fd, "bind", path);
  }
  if (::listen(*fd, 64) != 0) {
    const Status failed = CloseWithError(*fd, "listen", path);
    ::unlink(path.c_str());
    return failed;
  }
  return fd;
}

StatusOr<int> ConnectUnixSocket(const std::string& path) {
  StatusOr<sockaddr_un> addr = UnixAddress(path);
  VPART_RETURN_IF_ERROR(addr.status());
  StatusOr<int> fd = NewUnixSocket();
  VPART_RETURN_IF_ERROR(fd.status());
  if (::connect(*fd, reinterpret_cast<const sockaddr*>(&*addr),
                sizeof(*addr)) != 0) {
    return CloseWithError(*fd, "connect", path);
  }
  return fd;
}

}  // namespace vpart

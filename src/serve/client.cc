#include "serve/client.h"

#include <utility>

#include <unistd.h>

#include "util/wire.h"

namespace vpart {

ServeClient::~ServeClient() { Close(); }

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

StatusOr<ServeClient> ServeClient::Connect(const std::string& socket_path) {
  StatusOr<int> fd = ConnectUnixSocket(socket_path);
  VPART_RETURN_IF_ERROR(fd.status());
  ServeClient client;
  client.fd_ = *fd;
  return client;
}

Status ServeClient::Send(const std::string& request_json) {
  if (fd_ < 0) return FailedPreconditionError("client not connected");
  return WriteFrame(fd_, request_json);
}

StatusOr<std::string> ServeClient::Receive() {
  if (fd_ < 0) return FailedPreconditionError("client not connected");
  return ReadFrame(fd_);
}

StatusOr<std::string> ServeClient::Roundtrip(const std::string& request_json) {
  VPART_RETURN_IF_ERROR(Send(request_json));
  return Receive();
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace vpart

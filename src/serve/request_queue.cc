#include "serve/request_queue.h"

#include <algorithm>
#include <utility>

namespace vpart {

RequestQueue::RequestQueue(size_t max_depth)
    : max_depth_(max_depth == 0 ? 1 : max_depth) {}

Status RequestQueue::Submit(QueuedRequest request) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) {
    return FailedPreconditionError("server is shutting down");
  }
  const size_t depth = interactive_.size() + batch_.size();
  if (depth >= max_depth_) {
    return FailedPreconditionError(
        "overloaded: queue depth " + std::to_string(depth) +
        " at capacity " + std::to_string(max_depth_));
  }
  auto& queue =
      request.cli.serve.qos == ServeQos::kBatch ? batch_ : interactive_;
  queue.push_back(std::move(request));
  lock.unlock();
  cv_.notify_one();
  return Status::Ok();
}

std::optional<QueuedRequest> RequestQueue::PopLocked() {
  auto& queue = !interactive_.empty() ? interactive_ : batch_;
  if (queue.empty()) return std::nullopt;
  QueuedRequest request = std::move(queue.front());
  queue.pop_front();
  InFlight tracked;
  tracked.connection_id = request.connection_id;
  tracked.token = request.token;
  assigned_.emplace(request.id, std::move(tracked));
  return request;
}

std::optional<QueuedRequest> RequestQueue::Assign() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return closed_ || !interactive_.empty() || !batch_.empty();
  });
  if (interactive_.empty() && batch_.empty()) return std::nullopt;  // closed
  return PopLocked();
}

bool RequestQueue::AttachSolveToken(uint64_t id,
                                    CancellationToken solve_token) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = assigned_.find(id);
  if (it == assigned_.end() || it->second.dropped) {
    solve_token.Cancel();
    return false;
  }
  it->second.token = std::move(solve_token);
  return true;
}

void RequestQueue::Finish(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  assigned_.erase(id);
}

void RequestQueue::DropConnection(uint64_t connection_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto purge = [connection_id](std::deque<QueuedRequest>& queue) {
    queue.erase(std::remove_if(queue.begin(), queue.end(),
                               [connection_id](const QueuedRequest& r) {
                                 return r.connection_id == connection_id;
                               }),
                queue.end());
  };
  purge(interactive_);
  purge(batch_);
  for (auto& [id, in_flight] : assigned_) {
    if (in_flight.connection_id == connection_id) {
      in_flight.dropped = true;
      in_flight.token.Cancel();
    }
  }
}

void RequestQueue::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  closed_ = true;
  interactive_.clear();
  batch_.clear();
  for (auto& [id, in_flight] : assigned_) {
    in_flight.dropped = true;
    in_flight.token.Cancel();
  }
  lock.unlock();
  cv_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

}  // namespace vpart

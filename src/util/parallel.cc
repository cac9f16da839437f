#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace vpart {

int DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(int n, int threads, const std::function<void(int)>& fn) {
  std::atomic<int> next{1};  // index 0 is the caller's
  std::mutex failure_mu;
  std::exception_ptr failure;
  auto work = [&](int i) {
    for (; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        next = n;  // hand out no further index
        std::lock_guard<std::mutex> lock(failure_mu);
        if (failure == nullptr) failure = std::current_exception();
      }
    }
  };
  const int others = std::min(threads, n) - 1;
  std::vector<std::thread> started;
  started.reserve(std::max(others, 0));
  for (int t = 0; t < others; ++t) {
    try {
      started.emplace_back([&] { work(next++); });
    } catch (...) {
      break;  // the started workers take its indices
    }
  }
  work(0);
  for (std::thread& thread : started) thread.join();
  if (failure != nullptr) std::rethrow_exception(failure);
}

}  // namespace vpart

#ifndef VPART_UTIL_DEADLINE_H_
#define VPART_UTIL_DEADLINE_H_

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/stopwatch.h"

namespace vpart {

/// Monotonic-clock deadline shared by the solver stack and the serve layer.
/// `Expired()` is false forever when constructed with a non-positive limit
/// (meaning "no limit"). Safe to poll from many threads concurrently (the
/// limit is immutable, the stopwatch reads are atomic).
///
/// Two conventions meet here and both are encoded as named helpers so call
/// sites stop re-deriving them by hand:
///  - solver options use `time_limit_seconds <= 0` for "unlimited"
///    (`SolverBudgetSeconds()` produces that encoding);
///  - budget slicing takes the minimum of the global deadline and a local
///    lane/phase budget (`RemainingUnder()`).
class Deadline {
 public:
  explicit Deadline(double limit_seconds) : limit_seconds_(limit_seconds) {}

  /// A deadline that never expires.
  static Deadline Unlimited() { return Deadline(0.0); }

  /// A deadline `limit_seconds` from now; non-positive means unlimited.
  static Deadline After(double limit_seconds) { return Deadline(limit_seconds); }

  bool HasLimit() const { return limit_seconds_ > 0; }
  bool Expired() const {
    return HasLimit() && watch_.ElapsedSeconds() >= limit_seconds_;
  }
  double RemainingSeconds() const {
    if (!HasLimit()) return kNoLimitSeconds;
    double r = limit_seconds_ - watch_.ElapsedSeconds();
    return r > 0 ? r : 0;
  }
  double ElapsedSeconds() const { return watch_.ElapsedSeconds(); }

  /// Remaining seconds under an additional local budget. A non-positive
  /// `budget_seconds` means the local budget is unlimited, so this reduces to
  /// RemainingSeconds(). Never negative.
  double RemainingUnder(double budget_seconds) const {
    double remaining = RemainingSeconds();
    if (budget_seconds > 0) {
      remaining = std::min(remaining, budget_seconds);
    }
    return remaining > 0 ? remaining : 0;
  }

  /// Remaining seconds in the `time_limit_seconds` encoding solver options
  /// use: 0.0 means "unlimited", so a limited deadline always reports a
  /// positive budget, and an expired one reports kSpentSeconds, a budget a
  /// solver exhausts at once.
  double SolverBudgetSeconds() const {
    return HasLimit() ? std::max(RemainingSeconds(), kSpentSeconds) : 0.0;
  }

  /// Sentinel returned by RemainingSeconds() when no limit is set.
  static constexpr double kNoLimitSeconds = 1e18;
  /// SolverBudgetSeconds() of an expired deadline.
  static constexpr double kSpentSeconds = 1e-9;

 private:
  double limit_seconds_;
  Stopwatch watch_;
};

/// Cooperative cancellation handle shared by a controller and its workers.
/// Copies alias the same state; `Cancel()` on any copy is visible to all.
/// A token may carry a deadline: `cancelled()` reports true once either
/// `Cancel()` was called or the deadline expired (expiry latches the flag so
/// raw-flag observers see it too). All members are thread-safe.
///
/// Solver options (MipOptions, SaOptions) take `flag()`, a plain
/// `const std::atomic<bool>*`.
class CancellationToken {
 public:
  /// A token with no deadline; cancels only via Cancel().
  CancellationToken() : state_(std::make_shared<State>(0.0)) {}

  /// A token that self-cancels `limit_seconds` from now (<= 0: no deadline).
  static CancellationToken WithDeadline(double limit_seconds) {
    CancellationToken token;
    token.state_ = std::make_shared<State>(limit_seconds);
    return token;
  }

  void Cancel() { state_->flag.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    if (state_->flag.load(std::memory_order_relaxed)) return true;
    if (state_->deadline.Expired()) {
      // Latch so raw-flag observers (mip) see the deadline too.
      state_->flag.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Seconds until the deadline; a very large value when none.
  double RemainingSeconds() const { return state_->deadline.RemainingSeconds(); }

  bool HasDeadline() const { return state_->deadline.HasLimit(); }

  /// The underlying deadline (unlimited when the token has none). Use the
  /// Deadline helpers (SolverBudgetSeconds, RemainingUnder) instead of
  /// re-deriving budget math at call sites.
  const Deadline& deadline() const { return state_->deadline; }

  /// Shorthand for deadline().SolverBudgetSeconds(): remaining seconds in
  /// the `time_limit_seconds` solver-options encoding (0 = unlimited).
  double SolverBudgetSeconds() const {
    return state_->deadline.SolverBudgetSeconds();
  }

  /// Raw flag handle. Deadline expiry reaches the flag lazily — it latches
  /// whenever any copy of the token polls cancelled().
  const std::atomic<bool>* flag() const { return &state_->flag; }

 private:
  struct State {
    explicit State(double limit_seconds) : deadline(limit_seconds) {}
    std::atomic<bool> flag{false};
    Deadline deadline;
  };

  std::shared_ptr<State> state_;
};

}  // namespace vpart

#endif  // VPART_UTIL_DEADLINE_H_

#ifndef VPART_API_SESSION_H_
#define VPART_API_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "api/advise.h"
#include "api/events.h"
#include "cost/cost_coefficients.h"
#include "util/deadline.h"
#include "util/status.h"

namespace vpart {

/// One in-flight advise request: the service-style handle around the
/// blocking Advise() core. A session runs its solve on a dedicated thread,
/// records the event stream, and supports cooperative cancellation:
///
///   AdviseSession session(instance, request);
///   session.OnIncumbent([](const IncumbentEvent& e) { ... });  // optional
///   session.Start();
///   ...
///   session.Cancel();                    // optional, from any thread
///   const auto& response = session.Wait();
///
/// Lifecycle: kIdle -> Start() -> kRunning -> kDone (exactly once; Start()
/// twice fails). Cancel() flips the shared token — every stage (SA inner
/// loop, B&B nodes, portfolio lanes, incremental fold-in) polls it and
/// returns its best incumbent so far; the response then carries
/// AdviseOutcome::kCancelled. The destructor cancels and joins, so a
/// session never outlives its solve thread.
///
/// The session holds its instance by std::shared_ptr<const Instance>, so
/// the solve thread can never outlive the instance it prices: construct
/// with a shared_ptr and the session co-owns it; the const-reference
/// convenience constructor merely borrows (the caller must then keep
/// `instance` alive until the session is destroyed or Wait() returned).
/// Callbacks fire on the solver threads (see
/// api/events.h); Events()/BestIncumbent()/state() are safe from any
/// thread, including inside callbacks.
class AdviseSession {
 public:
  enum class State { kIdle, kRunning, kDone };

  /// Co-owning: the session keeps `instance` alive for its whole solve.
  AdviseSession(std::shared_ptr<const Instance> instance,
                AdviseRequest request);
  /// Borrowing convenience for scoped embeddings; the caller keeps
  /// `instance` alive (see the class comment).
  AdviseSession(const Instance& instance, AdviseRequest request);
  ~AdviseSession();

  AdviseSession(const AdviseSession&) = delete;
  AdviseSession& operator=(const AdviseSession&) = delete;

  /// Install stream observers; only before Start().
  void OnProgress(ProgressCallback callback);
  void OnIncumbent(IncumbentCallback callback);

  /// Launches the solve thread. Fails (kFailedPrecondition) after the
  /// first call.
  Status Start();

  /// Requests cooperative cancellation; idempotent, callable from any
  /// thread, also before Start() (the solve then stops at its first poll).
  void Cancel();

  /// Non-blocking: true once the response is ready (Wait() won't block).
  bool Poll() const;

  /// Blocks until the solve finishes and returns the response. Implies
  /// Start() if the caller forgot. Must not be called from a callback.
  const StatusOr<AdviseResponse>& Wait();

  State state() const;

  /// Snapshot of the progress stream recorded so far (grows while
  /// running; capped — see kMaxRecordedEvents — with older ticks kept).
  std::vector<ProgressEvent> Events() const;

  /// Latest incumbent seen, if any (also available mid-run).
  std::optional<IncumbentEvent> BestIncumbent() const;

  /// The session's cancellation token (aliases the one the solve polls);
  /// exposes the deadline derived from request.time_limit_seconds.
  CancellationToken token() const { return token_; }

  /// Recording cap for Events(); beyond it new ticks are dropped (the
  /// user callback still sees everything).
  static constexpr size_t kMaxRecordedEvents = 4096;

 private:
  void Run();

  const std::shared_ptr<const Instance> instance_;
  const AdviseRequest request_;
  CancellationToken token_;
  std::atomic<bool> user_cancelled_{false};

  ProgressCallback user_progress_;
  IncumbentCallback user_incumbent_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  State state_ = State::kIdle;
  std::vector<ProgressEvent> events_;
  std::optional<IncumbentEvent> best_;
  std::optional<StatusOr<AdviseResponse>> response_;
  std::thread worker_;
};

}  // namespace vpart

#endif  // VPART_API_SESSION_H_

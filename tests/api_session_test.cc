// One advise request's lifecycle through AdviseWithHooks, the request path
// of vpart_cli and the daemon: its event stream and the recorder that
// keeps it for a reply, cancellation through the request token (from a
// callback, from another thread, before the call) and the deadline.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/advise.h"
#include "api/solver_registry.h"
#include "cost/partitioning.h"
#include "instances/random_instance.h"
#include "instances/tpcc.h"
#include "workload/instance.h"

namespace vpart {
namespace {

/// Blocks the test thread until a solver-side event unblocks it (or a
/// liberal timeout proves a hang, which is itself the failure mode the
/// cancellation tests guard against).
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  bool WaitFor(double seconds) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                        [this]() { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

std::set<std::string> Phases(const std::vector<ProgressEvent>& events) {
  std::set<std::string> phases;
  for (const ProgressEvent& event : events) phases.insert(event.phase);
  return phases;
}

/// The hooks of a library caller that streams incumbents: a token that
/// carries the request's time limit, as Advise and both front ends build
/// it, and an incumbent hook, so the response counts incumbents.
AdviseHooks StreamingHooks(const AdviseRequest& request) {
  AdviseHooks hooks;
  hooks.token = CancellationToken::WithDeadline(request.time_limit_seconds);
  hooks.incumbent = [](const IncumbentEvent&) {};
  return hooks;
}

struct Recorded {
  StatusOr<AdviseResponse> response;
  std::vector<ProgressEvent> events;
};

/// Solves with a ProgressRecorder installed, as emit_events does.
Recorded AdviseRecorded(const Instance& instance, const AdviseRequest& request,
                        AdviseHooks hooks) {
  ProgressRecorder recorder;
  hooks.progress = recorder.Hook();
  StatusOr<AdviseResponse> response = AdviseWithHooks(instance, request, hooks);
  return {std::move(response), recorder.Take()};
}

/// Runs the solve on a thread of its own, as a caller that may cancel it
/// does; once `gate` opens (or 30 s pass) the test thread cancels through
/// the token. Returns whether the gate opened in time.
bool AdviseAndCancelAtGate(const Instance& instance,
                           const AdviseRequest& request, AdviseHooks hooks,
                           Gate& gate, StatusOr<AdviseResponse>& response) {
  std::thread solve(
      [&]() { response = AdviseWithHooks(instance, request, hooks); });
  const bool opened = gate.WaitFor(30.0);
  hooks.token.Cancel();
  solve.join();
  return opened;
}

/// Two tables, two transactions: an anneal takes microseconds, so a
/// restart cap sets how many progress ticks an SA solve emits.
StatusOr<Instance> MakeTinyInstance() {
  InstanceBuilder builder("tiny");
  const int t0 = builder.AddTable("T0");
  const int a0 = builder.AddAttribute(t0, "a0", 4);
  const int a1 = builder.AddAttribute(t0, "a1", 8);
  const int t1 = builder.AddTable("T1");
  const int b0 = builder.AddAttribute(t1, "b0", 2);
  const int b1 = builder.AddAttribute(t1, "b1", 6);
  const int x0 = builder.AddTransaction("X0");
  builder.AddQuery(x0, "q0", QueryKind::kRead, 10, {a0, b0});
  const int x1 = builder.AddTransaction("X1");
  builder.AddQuery(x1, "q1", QueryKind::kWrite, 5, {a1, b1});
  return builder.Build();
}

TEST(AdviseSessionTest, RunsToCompletionWithEventStream) {
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  request.num_sites = 3;
  AdviseHooks hooks = StreamingHooks(request);
  std::atomic<int> incumbents{0};
  hooks.incumbent = [&incumbents](const IncumbentEvent&) { ++incumbents; };
  const Recorded run = AdviseRecorded(tpcc, request, hooks);

  ASSERT_TRUE(run.response.ok());
  EXPECT_EQ(run.response->outcome, AdviseOutcome::kComplete);
  EXPECT_EQ(run.response->solver_used, kSolverExhaustive);  // 5 txns -> tiny
  EXPECT_GT(run.response->result.cost, 0.0);
  EXPECT_GE(incumbents.load(), 1);
  EXPECT_EQ(run.response->incumbents, incumbents.load());

  ASSERT_FALSE(run.events.empty());
  EXPECT_EQ(run.events.back().phase, "done");
  EXPECT_DOUBLE_EQ(run.events.back().best_cost, run.response->result.cost);
}

TEST(AdviseSessionTest, ProgressEventSeqIsDenseAndOrdered) {
  // Events are stamped with a monotonic per-request sequence number at the
  // emission site, so consumers that receive them over an unordered
  // transport can restore emission order. The stamps must be unique, dense
  // (0..N-1 — nothing dropped), and the terminal "done" event must carry
  // the largest seq.
  Instance instance = MakeRandomInstance(Table1DefaultParams(6, /*seed=*/5));
  AdviseRequest request;
  request.solver = kSolverSa;
  request.time_limit_seconds = 5.0;
  request.sa.max_restarts = 4;
  const Recorded run =
      AdviseRecorded(instance, request, StreamingHooks(request));
  ASSERT_TRUE(run.response.ok());

  const std::vector<ProgressEvent>& events = run.events;
  ASSERT_GE(events.size(), 2u) << "need solver events plus done";
  std::set<long> seqs;
  long max_seq = -1;
  for (const ProgressEvent& event : events) {
    EXPECT_TRUE(seqs.insert(event.seq).second)
        << "duplicate seq " << event.seq;
    max_seq = std::max(max_seq, event.seq);
  }
  EXPECT_EQ(*seqs.begin(), 0) << "seq must start at 0";
  EXPECT_EQ(max_seq, static_cast<long>(events.size()) - 1)
      << "seq must be dense (no gaps)";
  EXPECT_EQ(events.back().phase, "done");
  EXPECT_EQ(events.back().seq, max_seq)
      << "done must carry the largest seq";
  // The recorded stream arrives in emission order: seq is ascending.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
}

TEST(AdviseSessionTest, ProgressEventsFireFromSaPath) {
  Instance instance = MakeRandomInstance(Table1DefaultParams(6, /*seed=*/5));
  AdviseRequest request;
  request.solver = kSolverSa;
  request.time_limit_seconds = 5.0;
  request.sa.max_restarts = 2;
  const Recorded run =
      AdviseRecorded(instance, request, StreamingHooks(request));
  ASSERT_TRUE(run.response.ok());
  const std::set<std::string> phases = Phases(run.events);
  EXPECT_TRUE(phases.count("sa")) << "no sa progress event";
  EXPECT_TRUE(phases.count("done"));
  EXPECT_GE(run.response->incumbents, 1);
}

TEST(AdviseSessionTest, ProgressEventsFireFromIlpPath) {
  Instance instance = MakeRandomInstance(Table1DefaultParams(4, /*seed=*/2));
  AdviseRequest request;
  request.solver = kSolverIlp;
  request.time_limit_seconds = 20.0;
  const Recorded run =
      AdviseRecorded(instance, request, StreamingHooks(request));
  ASSERT_TRUE(run.response.ok());
  const std::set<std::string> phases = Phases(run.events);
  // The warm start's encoded incumbent alone guarantees one ilp event.
  EXPECT_TRUE(phases.count("ilp")) << "no ilp progress event";
  EXPECT_GE(run.response->incumbents, 1);
}

TEST(AdviseSessionTest, ProgressEventsFireFromIncrementalPath) {
  Instance instance = MakeRandomInstance(Table1DefaultParams(6, /*seed=*/3));
  AdviseRequest request;
  request.solver = kSolverIncremental;
  request.time_limit_seconds = 5.0;
  const Recorded run =
      AdviseRecorded(instance, request, StreamingHooks(request));
  ASSERT_TRUE(run.response.ok());
  const std::set<std::string> phases = Phases(run.events);
  EXPECT_TRUE(phases.count("incremental")) << "no incremental event";
  EXPECT_GE(run.response->incumbents, 1);
}

TEST(AdviseSessionTest, ProgressEventsFireFromPortfolioPath) {
  Instance instance = MakeRandomInstance(Table1DefaultParams(6, /*seed=*/7));
  AdviseRequest request;
  request.solver = kSolverPortfolio;
  request.num_threads = 2;
  request.time_limit_seconds = 3.0;
  const Recorded run =
      AdviseRecorded(instance, request, StreamingHooks(request));
  ASSERT_TRUE(run.response.ok());
  const std::set<std::string> phases = Phases(run.events);
  EXPECT_TRUE(phases.count("portfolio")) << "no portfolio incumbent event";
  EXPECT_GE(run.response->incumbents, 1);
  EXPECT_NE(run.response->result.algorithm_used.find("portfolio"),
            std::string::npos);
}

TEST(AdviseSessionTest, CancelMidSaReturnsBestIncumbent) {
  // A workload big enough that SA restarts would chew through the whole
  // 60 s budget; the cancel must bring the solve home long before that
  // with the best solution found so far.
  Instance instance =
      MakeRandomInstance(Table1DefaultParams(12, /*seed=*/11));
  AdviseRequest request;
  request.solver = kSolverSa;
  request.time_limit_seconds = 60.0;
  request.sa.max_restarts = 1 << 20;

  Gate first_event;
  AdviseHooks hooks = StreamingHooks(request);
  hooks.progress = [&first_event](const ProgressEvent& event) {
    if (event.phase == "sa") first_event.Open();
  };
  StatusOr<AdviseResponse> response = InternalError("not run");
  ASSERT_TRUE(
      AdviseAndCancelAtGate(instance, request, hooks, first_event, response))
      << "no SA progress within 30s";
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->outcome, AdviseOutcome::kCancelled);
  EXPECT_LT(response->result.seconds, 30.0) << "cancel did not cut the solve";
  // Best incumbent so far came back as a full, feasible recommendation.
  EXPECT_GT(response->result.cost, 0.0);
  EXPECT_TRUE(ValidatePartitioning(instance, response->result.partitioning,
                                   false)
                  .ok());
}

TEST(AdviseSessionTest, CancelMidBranchAndBoundReturnsBestIncumbent) {
  // rndA class at 8 tables: the B&B needs far longer than the cancel
  // point; the warm-start incumbent guarantees a solution exists.
  auto instance = MakeNamedRandomInstance("rndAt8x15");
  ASSERT_TRUE(instance.ok());
  AdviseRequest request;
  request.solver = kSolverIlp;
  request.time_limit_seconds = 60.0;
  request.ilp.mip_gap = 1e-9;  // demand an (unreachable) airtight proof

  Gate first_event;
  AdviseHooks hooks = StreamingHooks(request);
  hooks.progress = [&first_event](const ProgressEvent& event) {
    if (event.phase == "ilp") first_event.Open();
  };
  StatusOr<AdviseResponse> response = InternalError("not run");
  ASSERT_TRUE(
      AdviseAndCancelAtGate(*instance, request, hooks, first_event, response))
      << "no ILP progress within 30s";
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->outcome, AdviseOutcome::kCancelled);
  EXPECT_LT(response->result.seconds, 30.0) << "cancel did not cut the solve";
  EXPECT_GT(response->result.cost, 0.0);
  EXPECT_FALSE(response->result.proven_optimal);
  EXPECT_TRUE(ValidatePartitioning(*instance, response->result.partitioning,
                                   false)
                  .ok());
}

TEST(AdviseSessionTest, CancelMidPortfolioReturnsBestIncumbent) {
  Instance instance =
      MakeRandomInstance(Table1DefaultParams(12, /*seed=*/13));
  AdviseRequest request;
  request.solver = kSolverPortfolio;
  request.num_threads = 4;
  request.time_limit_seconds = 60.0;

  AdviseHooks hooks = StreamingHooks(request);
  // Cancel from the callback: it runs on a lane during the solve, so the
  // cancel always lands before the response's outcome is decided.
  CancellationToken token = hooks.token;
  hooks.incumbent = [token](const IncumbentEvent&) mutable {
    token.Cancel();
  };
  const StatusOr<AdviseResponse> response =
      AdviseWithHooks(instance, request, hooks);
  ASSERT_TRUE(response.ok());
  EXPECT_GE(response->incumbents, 1);
  EXPECT_EQ(response->outcome, AdviseOutcome::kCancelled);
  EXPECT_LT(response->result.seconds, 30.0);
  EXPECT_GT(response->result.cost, 0.0);
}

TEST(AdviseSessionTest, CancelBeforeStartStillCompletes) {
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  request.solver = kSolverSa;
  AdviseHooks hooks = StreamingHooks(request);
  hooks.token.Cancel();
  const StatusOr<AdviseResponse> response =
      AdviseWithHooks(tpcc, request, hooks);
  // The solve stops at its first poll but still returns a feasible
  // answer (SA's initial solution) with the cancelled outcome.
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->outcome, AdviseOutcome::kCancelled);
  EXPECT_TRUE(ValidatePartitioning(tpcc, response->result.partitioning,
                                   false)
                  .ok());
}

TEST(AdviseSessionTest, DeadlineBoundsTheSolve) {
  Instance instance =
      MakeRandomInstance(Table1DefaultParams(12, /*seed=*/17));
  AdviseRequest request;
  request.solver = kSolverSa;
  request.time_limit_seconds = 0.3;
  request.sa.max_restarts = 1 << 20;  // would anneal forever without it
  const StatusOr<AdviseResponse> response =
      AdviseWithHooks(instance, request, StreamingHooks(request));
  ASSERT_TRUE(response.ok());
  // Deadline expiry is a normal completion, not a cancellation.
  EXPECT_EQ(response->outcome, AdviseOutcome::kComplete);
  EXPECT_LT(response->result.seconds, 20.0);
  EXPECT_GT(response->result.cost, 0.0);
}

// The outcome rule, both ways on one request: the race's ILP lane proves
// and cancels the shared token to stop its heuristic lanes, and that
// answer is complete; the same race under a token the caller cancelled
// before the call proves nothing and is cancelled.
TEST(AdviseOutcomeTest, ProvenPortfolioRaceIsCompleteThoughItsTokenReadsCancelled) {
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  request.solver = kSolverPortfolio;
  request.num_sites = 3;
  request.num_threads = 2;
  request.time_limit_seconds = 10.0;

  AdviseHooks proven = StreamingHooks(request);
  const StatusOr<AdviseResponse> response =
      AdviseWithHooks(tpcc, request, proven);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->result.proven_optimal);
  EXPECT_TRUE(proven.token.cancelled()) << "the proof stops the race";
  EXPECT_FALSE(proven.token.deadline().Expired());
  EXPECT_EQ(response->outcome, AdviseOutcome::kComplete);

  AdviseHooks stopped = StreamingHooks(request);
  stopped.token.Cancel();
  const StatusOr<AdviseResponse> cancelled =
      AdviseWithHooks(tpcc, request, stopped);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_FALSE(cancelled->result.proven_optimal);
  EXPECT_EQ(cancelled->outcome, AdviseOutcome::kCancelled);
}

TEST(ProgressRecorderTest, KeepsAtMostTheCapAndAlwaysDone) {
  constexpr long kCap = ProgressRecorder::kMaxRecordedEvents;
  // Up to the cap nothing is dropped.
  {
    ProgressRecorder recorder;
    const ProgressCallback record = recorder.Hook();
    ProgressEvent event;
    event.phase = "sa";
    for (event.seq = 0; event.seq + 1 < kCap; ++event.seq) record(event);
    event.phase = "done";
    record(event);
    const std::vector<ProgressEvent> events = recorder.Take();
    ASSERT_EQ(static_cast<long>(events.size()), kCap);
    EXPECT_EQ(events.back().phase, "done");
  }
  // Beyond it, a real solve: 6,000 SA restarts on a tiny instance emit
  // 6,002 anneal ticks before done.
  StatusOr<Instance> instance = MakeTinyInstance();
  ASSERT_TRUE(instance.ok());
  AdviseRequest request;
  request.solver = kSolverSa;
  request.time_limit_seconds = 60.0;
  request.sa.max_restarts = 6000;
  ProgressRecorder recorder;
  const ProgressCallback record = recorder.Hook();
  long emitted = 0;  // SA emits from the calling thread only
  AdviseHooks hooks = StreamingHooks(request);
  hooks.progress = [&](const ProgressEvent& event) {
    ++emitted;
    record(event);
  };
  const StatusOr<AdviseResponse> response =
      AdviseWithHooks(*instance, request, hooks);
  ASSERT_TRUE(response.ok());
  const std::vector<ProgressEvent> events = recorder.Take();

  EXPECT_GT(emitted, kCap);
  EXPECT_EQ(response->progress_events, emitted)
      << "telemetry counts every event emitted, kept or not";
  ASSERT_EQ(static_cast<long>(events.size()), kCap);
  EXPECT_EQ(events.back().phase, "done");
  EXPECT_EQ(events.back().seq, emitted - 1) << "done carries the largest seq";
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_EQ(events[i].phase, "sa");
    EXPECT_LT(events[i].seq, events.back().seq);
  }
}

TEST(AdviseApiTest, AutoWithLatencyAndThreadsSurfacesTheDowngrade) {
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  request.num_sites = 3;
  request.num_threads = 4;
  request.latency_penalty = 1.0;
  request.time_limit_seconds = 20.0;
  auto response = Advise(tpcc, request);
  ASSERT_TRUE(response.ok());
  // Never the portfolio (it cannot price the term), never silent: the
  // warning names the skipped solver and the real choice is surfaced.
  EXPECT_EQ(response->solver_used, kSolverIlp);
  EXPECT_EQ(response->result.algorithm_used.find("portfolio"),
            std::string::npos);
  ASSERT_FALSE(response->warnings.empty());
  EXPECT_NE(response->warnings.front().find("latency_penalty"),
            std::string::npos);
  EXPECT_GT(response->result.latency_cost, -1.0);  // computed (>= 0)
}

TEST(AdviseApiTest, InvalidRequestsAreRejected) {
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  request.num_sites = 0;
  EXPECT_FALSE(Advise(tpcc, request).ok());
  request.num_sites = 2;
  request.solver = "no-such-solver";
  EXPECT_FALSE(Advise(tpcc, request).ok());
}

}  // namespace
}  // namespace vpart

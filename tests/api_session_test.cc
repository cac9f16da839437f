#include "api/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>

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

TEST(AdviseSessionTest, RunsToCompletionWithEventStream) {
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  request.num_sites = 3;
  AdviseSession session(tpcc, request);
  std::atomic<int> incumbents{0};
  session.OnIncumbent(
      [&incumbents](const IncumbentEvent&) { ++incumbents; });

  EXPECT_EQ(session.state(), AdviseSession::State::kIdle);
  ASSERT_TRUE(session.Start().ok());
  EXPECT_FALSE(session.Start().ok()) << "double Start must fail";
  const StatusOr<AdviseResponse>& response = session.Wait();
  EXPECT_EQ(session.state(), AdviseSession::State::kDone);
  EXPECT_TRUE(session.Poll());

  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->outcome, AdviseOutcome::kComplete);
  EXPECT_EQ(response->solver_used, kSolverExhaustive);  // 5 txns -> tiny
  EXPECT_GT(response->result.cost, 0.0);
  EXPECT_GE(incumbents.load(), 1);
  EXPECT_EQ(response->incumbents, incumbents.load());

  const std::vector<ProgressEvent> events = session.Events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().phase, "done");
  EXPECT_DOUBLE_EQ(events.back().best_cost, response->result.cost);
  ASSERT_TRUE(session.BestIncumbent().has_value());
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
  AdviseSession session(instance, request);
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(session.Wait().ok());

  const std::vector<ProgressEvent> events = session.Events();
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

TEST(AdviseSessionTest, CoOwnsSharedInstance) {
  // The shared_ptr constructor makes the session co-own its instance:
  // dropping every other reference before (and during) the solve must be
  // safe — the lifetime footgun the borrowing constructor documents away.
  auto instance = std::make_shared<const Instance>(MakeTpccInstance());
  AdviseRequest request;
  request.solver = kSolverSa;
  request.time_limit_seconds = 0.2;
  AdviseSession session(instance, request);
  instance.reset();
  ASSERT_TRUE(session.Start().ok());
  const StatusOr<AdviseResponse>& response = session.Wait();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->outcome, AdviseOutcome::kComplete);
}

TEST(AdviseSessionTest, WaitImpliesStart) {
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  AdviseSession session(tpcc, request);
  const StatusOr<AdviseResponse>& response = session.Wait();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->outcome, AdviseOutcome::kComplete);
}

TEST(AdviseSessionTest, ProgressEventsFireFromSaPath) {
  Instance instance = MakeRandomInstance(Table1DefaultParams(6, /*seed=*/5));
  AdviseRequest request;
  request.solver = kSolverSa;
  request.time_limit_seconds = 5.0;
  request.sa.max_restarts = 2;
  AdviseSession session(instance, request);
  ASSERT_TRUE(session.Start().ok());
  const StatusOr<AdviseResponse>& response = session.Wait();
  ASSERT_TRUE(response.ok());
  const std::set<std::string> phases = Phases(session.Events());
  EXPECT_TRUE(phases.count("sa")) << "no sa progress event";
  EXPECT_TRUE(phases.count("done"));
  EXPECT_GE(response->incumbents, 1);
}

TEST(AdviseSessionTest, ProgressEventsFireFromIlpPath) {
  Instance instance = MakeRandomInstance(Table1DefaultParams(4, /*seed=*/2));
  AdviseRequest request;
  request.solver = kSolverIlp;
  request.time_limit_seconds = 20.0;
  AdviseSession session(instance, request);
  ASSERT_TRUE(session.Start().ok());
  const StatusOr<AdviseResponse>& response = session.Wait();
  ASSERT_TRUE(response.ok());
  const std::set<std::string> phases = Phases(session.Events());
  // The warm start's encoded incumbent alone guarantees one ilp event.
  EXPECT_TRUE(phases.count("ilp")) << "no ilp progress event";
  EXPECT_GE(response->incumbents, 1);
}

TEST(AdviseSessionTest, ProgressEventsFireFromIncrementalPath) {
  Instance instance = MakeRandomInstance(Table1DefaultParams(6, /*seed=*/3));
  AdviseRequest request;
  request.solver = kSolverIncremental;
  request.time_limit_seconds = 5.0;
  AdviseSession session(instance, request);
  ASSERT_TRUE(session.Start().ok());
  const StatusOr<AdviseResponse>& response = session.Wait();
  ASSERT_TRUE(response.ok());
  const std::set<std::string> phases = Phases(session.Events());
  EXPECT_TRUE(phases.count("incremental")) << "no incremental event";
  EXPECT_GE(response->incumbents, 1);
}

TEST(AdviseSessionTest, ProgressEventsFireFromPortfolioPath) {
  Instance instance = MakeRandomInstance(Table1DefaultParams(6, /*seed=*/7));
  AdviseRequest request;
  request.solver = kSolverPortfolio;
  request.num_threads = 2;
  request.time_limit_seconds = 3.0;
  AdviseSession session(instance, request);
  ASSERT_TRUE(session.Start().ok());
  const StatusOr<AdviseResponse>& response = session.Wait();
  ASSERT_TRUE(response.ok());
  const std::set<std::string> phases = Phases(session.Events());
  EXPECT_TRUE(phases.count("portfolio")) << "no portfolio incumbent event";
  EXPECT_GE(response->incumbents, 1);
  EXPECT_NE(response->result.algorithm_used.find("portfolio"),
            std::string::npos);
}

TEST(AdviseSessionTest, CancelMidSaReturnsBestIncumbent) {
  // A workload big enough that SA restarts would chew through the whole
  // 60 s budget; the cancel must bring the session home long before that
  // with the best solution found so far.
  Instance instance =
      MakeRandomInstance(Table1DefaultParams(12, /*seed=*/11));
  AdviseRequest request;
  request.solver = kSolverSa;
  request.time_limit_seconds = 60.0;
  request.sa.max_restarts = 1 << 20;

  Gate first_event;  // declared before the session: outlives its callbacks
  AdviseSession session(instance, request);
  session.OnProgress([&first_event](const ProgressEvent& event) {
    if (event.phase == "sa") first_event.Open();
  });
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(first_event.WaitFor(30.0)) << "no SA progress within 30s";
  session.Cancel();
  const StatusOr<AdviseResponse>& response = session.Wait();
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

  Gate first_event;  // declared before the session: outlives its callbacks
  AdviseSession session(*instance, request);
  session.OnProgress([&first_event](const ProgressEvent& event) {
    if (event.phase == "ilp") first_event.Open();
  });
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(first_event.WaitFor(30.0)) << "no ILP progress within 30s";
  session.Cancel();
  const StatusOr<AdviseResponse>& response = session.Wait();
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

  Gate first_incumbent;  // declared before the session: outlives callbacks
  AdviseSession session(instance, request);
  // Cancel from the callback: it runs on a lane during the solve, so the
  // cancel always lands before the response's outcome is decided.
  session.OnIncumbent([&first_incumbent, &session](const IncumbentEvent&) {
    session.Cancel();
    first_incumbent.Open();
  });
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(first_incumbent.WaitFor(30.0)) << "no incumbent within 30s";
  const StatusOr<AdviseResponse>& response = session.Wait();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->outcome, AdviseOutcome::kCancelled);
  EXPECT_LT(response->result.seconds, 30.0);
  EXPECT_GT(response->result.cost, 0.0);
}

TEST(AdviseSessionTest, CancelBeforeStartStillCompletes) {
  Instance tpcc = MakeTpccInstance();
  AdviseRequest request;
  request.solver = kSolverSa;
  AdviseSession session(tpcc, request);
  session.Cancel();
  const StatusOr<AdviseResponse>& response = session.Wait();
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
  AdviseSession session(instance, request);
  ASSERT_TRUE(session.Start().ok());
  const StatusOr<AdviseResponse>& response = session.Wait();
  ASSERT_TRUE(response.ok());
  // Deadline expiry is a normal completion, not a cancellation.
  EXPECT_EQ(response->outcome, AdviseOutcome::kComplete);
  EXPECT_LT(response->result.seconds, 20.0);
  EXPECT_GT(response->result.cost, 0.0);
}

TEST(AdviseSessionTest, DestructorReapsARunningSession) {
  Instance instance =
      MakeRandomInstance(Table1DefaultParams(12, /*seed=*/19));
  AdviseRequest request;
  request.solver = kSolverSa;
  request.time_limit_seconds = 60.0;
  request.sa.max_restarts = 1 << 20;
  {
    AdviseSession session(instance, request);
    ASSERT_TRUE(session.Start().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Scope exit: the destructor must cancel + join without hanging.
  }
  SUCCEED();
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

#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace vpart {
namespace {

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(200);
  for (auto& hit : hits) hit = 0;
  ParallelFor(200, 4, [&](int i) { ++hits[i]; });
  for (int i = 0; i < 200; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, PropagatesTheFirstException) {
  EXPECT_THROW(ParallelFor(32, 4,
                           [](int i) {
                             if (i % 7 == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // No index is handed out after the failure.
  std::vector<int> ran;
  EXPECT_THROW(ParallelFor(10, 1,
                           [&](int i) {
                             ran.push_back(i);
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ParallelForTest, EmptyRangeIsANoop) {
  ParallelFor(0, 2, [](int) { FAIL() << "must not run"; });
}

TEST(ParallelForTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(DefaultThreadCount(), 1);
}

// Fan-outs nest (batch tables -> portfolio lanes -> B&B workers): every
// call starts its own threads, so a blocked outer index starves nobody.
TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  std::atomic<int> done{0};
  ParallelFor(4, 2, [&](int) {
    ParallelFor(8, 2, [&](int) { ParallelFor(2, 2, [&](int) { ++done; }); });
  });
  EXPECT_EQ(done.load(), 4 * 8 * 2);
}

// One thread starts none: the caller runs every index, in ascending order.
TEST(ParallelForTest, OneThreadRunsInOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  bool off_thread = false;
  ParallelFor(10, 1, [&](int i) {
    order.push_back(i);
    off_thread = off_thread || std::this_thread::get_id() != caller;
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_FALSE(off_thread);
}

}  // namespace
}  // namespace vpart

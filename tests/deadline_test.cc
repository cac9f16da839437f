#include "util/deadline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace vpart {
namespace {

TEST(DeadlineTest, UnlimitedNeverExpires) {
  Deadline d = Deadline::Unlimited();
  EXPECT_FALSE(d.HasLimit());
  EXPECT_FALSE(d.Expired());
  EXPECT_GE(d.RemainingSeconds(), Deadline::kNoLimitSeconds);
  EXPECT_EQ(d.SolverBudgetSeconds(), 0.0);
}

TEST(DeadlineTest, NonPositiveLimitMeansUnlimited) {
  EXPECT_FALSE(Deadline(0.0).HasLimit());
  EXPECT_FALSE(Deadline(-1.0).HasLimit());
  EXPECT_FALSE(Deadline::After(-3.5).HasLimit());
}

TEST(DeadlineTest, ExpiresAfterLimit) {
  Deadline d = Deadline::After(0.02);
  EXPECT_TRUE(d.HasLimit());
  EXPECT_GT(d.SolverBudgetSeconds(), 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingSeconds(), 0.0);
  // Spent, not 0.0: solver options read 0.0 as "unlimited".
  EXPECT_GT(d.SolverBudgetSeconds(), 0.0);
  EXPECT_LE(d.SolverBudgetSeconds(), 1e-6);
}

TEST(DeadlineTest, RemainingUnderClipsToLocalBudget) {
  Deadline d = Deadline::After(100.0);
  // A tighter local budget wins.
  EXPECT_LE(d.RemainingUnder(0.5), 0.5);
  // A non-positive local budget means "no extra cap".
  EXPECT_GT(d.RemainingUnder(0.0), 50.0);
  EXPECT_GT(d.RemainingUnder(-1.0), 50.0);
  // An unlimited deadline under a finite budget is just the budget.
  EXPECT_LE(Deadline::Unlimited().RemainingUnder(2.0), 2.0);
  EXPECT_GT(Deadline::Unlimited().RemainingUnder(2.0), 1.0);
}

TEST(DeadlineTest, ElapsedSecondsAdvances) {
  Deadline d = Deadline::After(10.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_GT(d.ElapsedSeconds(), 0.0);
  EXPECT_LT(d.RemainingSeconds(), 10.0);
}

TEST(CancellationTokenTest, ManualCancelSharedAcrossCopies) {
  CancellationToken token;
  CancellationToken copy = token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(copy.flag()->load());
  copy.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.flag()->load());
}

TEST(CancellationTokenTest, DeadlineExpiresAndLatchesTheFlag) {
  CancellationToken token = CancellationToken::WithDeadline(0.05);
  EXPECT_TRUE(token.HasDeadline());
  EXPECT_FALSE(token.cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(token.cancelled());
  // Expiry latched into the raw flag for observers that only see it.
  EXPECT_TRUE(token.flag()->load());
}

TEST(CancellationTokenTest, NoDeadlineNeverExpires) {
  CancellationToken token;
  EXPECT_FALSE(token.HasDeadline());
  EXPECT_GT(token.RemainingSeconds(), 1e6);
  EXPECT_FALSE(token.cancelled());
}

TEST(DeadlineTest, CancellationTokenSharesTheEncoding) {
  CancellationToken unlimited;
  EXPECT_FALSE(unlimited.HasDeadline());
  EXPECT_EQ(unlimited.SolverBudgetSeconds(), 0.0);
  EXPECT_FALSE(unlimited.deadline().HasLimit());

  CancellationToken limited = CancellationToken::WithDeadline(30.0);
  EXPECT_TRUE(limited.HasDeadline());
  EXPECT_GT(limited.SolverBudgetSeconds(), 0.0);
  EXPECT_LE(limited.SolverBudgetSeconds(), 30.0);
}

}  // namespace
}  // namespace vpart

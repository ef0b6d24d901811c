// Tests for the runtime lock-rank deadlock validator (util/lock_rank.hpp):
// acquiring ranked locks against the documented hierarchy must abort with
// both acquisition sites; following the hierarchy must be silent.

#include <gtest/gtest.h>

#include "util/blocking_queue.hpp"
#include "util/lock_rank.hpp"
#include "util/mutex.hpp"

namespace hyflow {
namespace {

#ifdef HYFLOW_LOCK_RANK_CHECKS

TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  // Alg. 4's chain is directory -> store -> queue; taking the directory
  // *after* the store inverts it and must die, naming both locks.
  auto invert = [] {
    Mutex store(LockRank::kObjectStore, "test-store");
    Mutex dir(LockRank::kDirectory, "test-directory");
    MutexLock hold_store(store);
    MutexLock hold_dir(dir);  // rank 10 under rank 20: inversion
  };
  EXPECT_DEATH(invert(), "lock-rank violation.*test-directory.*test-store");
}

TEST(LockRankDeathTest, EqualRankNestingAborts) {
  // Two instances of the same class must never nest (A->B in one thread,
  // B->A in another deadlocks while each order alone looks fine).
  auto nest_same_rank = [] {
    Mutex a(LockRank::kInbox, "inbox-a");
    Mutex b(LockRank::kInbox, "inbox-b");
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  };
  EXPECT_DEATH(nest_same_rank(), "lock-rank violation.*inbox-b.*inbox-a");
}

TEST(LockRank, InOrderChainPasses) {
  Mutex dir(LockRank::kDirectory, "test-directory");
  Mutex store(LockRank::kObjectStore, "test-store");
  Mutex queue(LockRank::kSchedulerQueue, "test-queue");
  {
    MutexLock hold_dir(dir);
    MutexLock hold_store(store);
    MutexLock hold_queue(queue);
    EXPECT_EQ(lock_rank::held_count(), 3);
  }
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRank, ReleaseRestoresFreedom) {
  // Sequential (non-nested) use in any order is legal: the inversion rule
  // only applies to locks held simultaneously.
  Mutex dir(LockRank::kDirectory, "test-directory");
  Mutex store(LockRank::kObjectStore, "test-store");
  {
    MutexLock hold(store);
  }
  {
    MutexLock hold(dir);  // lower rank, but nothing is held any more
  }
  EXPECT_EQ(lock_rank::held_count(), 0);
}

TEST(LockRank, TryLockIsExemptButRecorded) {
  Mutex store(LockRank::kObjectStore, "test-store");
  Mutex dir(LockRank::kDirectory, "test-directory");
  MutexLock hold(store);
  // A non-blocking acquisition cannot deadlock, so inverting via try_lock
  // is allowed...
  ASSERT_TRUE(dir.try_lock());
  EXPECT_EQ(lock_rank::held_count(), 2);
  dir.unlock();
  EXPECT_EQ(lock_rank::held_count(), 1);
}

TEST(LockRankDeathTest, BlockingAcquireAfterTryLockStillChecked) {
  // ...but the try-locked capability is recorded, so a later *blocking*
  // acquisition below it still trips the validator.
  auto blocked_under_trylock = [] {
    Mutex queue(LockRank::kSchedulerQueue, "test-queue");
    Mutex store(LockRank::kObjectStore, "test-store");
    ASSERT_TRUE(queue.try_lock());
    MutexLock hold(store);  // rank 20 under recorded rank 30
  };
  EXPECT_DEATH(blocked_under_trylock(), "lock-rank violation.*test-store.*test-queue");
}

TEST(LockRank, UnrankedLocksOptOut) {
  Mutex ranked(LockRank::kObjectStore, "test-store");
  Mutex unranked;  // kUnranked: utility lock, exempt from ordering
  MutexLock hold_ranked(ranked);
  {
    MutexLock hold_unranked(unranked);
    EXPECT_EQ(lock_rank::held_count(), 1);  // unranked never recorded
  }
}

TEST(LockRank, BlockingQueueRanksAsInbox) {
  // The production BlockingQueue participates: popping while holding the
  // (higher-ranked) log lock would abort, normal use is silent.
  BlockingQueue<int> q;
  q.push(7);
  EXPECT_EQ(q.try_pop(), std::optional<int>(7));
  EXPECT_EQ(lock_rank::held_count(), 0);
}

#else  // !HYFLOW_LOCK_RANK_CHECKS

TEST(LockRank, DisabledAtBuildTime) {
  GTEST_SKIP() << "built with -DHYFLOW_LOCK_RANK=OFF; validator compiled out";
}

#endif

}  // namespace
}  // namespace hyflow

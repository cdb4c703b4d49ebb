#include "common/sync.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace hyperq::common {
namespace {

/// Restores the validator flag on scope exit so death/graph tests can flip
/// it without leaking state into later tests.
class ScopedDetect {
 public:
  explicit ScopedDetect(bool on) : prev_(DeadlockDetectEnabled()) {
    SetDeadlockDetectForTesting(on);
  }
  ~ScopedDetect() { SetDeadlockDetectForTesting(prev_); }

 private:
  const bool prev_;
};

TEST(SyncTest, MutexLockExcludesConcurrentCriticalSections) {
  Mutex mu{LockRank::kJob, "test"};
  int counter = 0;
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(SyncTest, TryLockFailsWhileHeldAndSucceedsAfter) {
  Mutex mu{LockRank::kJob, "test"};
  mu.Lock();
  std::thread probe([&] {
    EXPECT_FALSE(mu.TryLock());
  });
  probe.join();
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(SyncTest, CondVarWaitWakesOnNotify) {
  Mutex mu{LockRank::kJob, "test"};
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(lock);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(SyncTest, WaitForReportsTimeout) {
  Mutex mu{LockRank::kJob, "test"};
  CondVar cv;
  MutexLock lock(&mu);
  // Nothing ever notifies: the wait must return true (timed out).
  EXPECT_TRUE(cv.WaitFor(lock, std::chrono::milliseconds(5)));
}

TEST(SyncTest, WaitUntilHonoursPredicateLoop) {
  Mutex mu{LockRank::kJob, "test"};
  CondVar cv;
  int stage = 0;
  std::thread stepper([&] {
    for (int i = 1; i <= 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      MutexLock lock(&mu);
      stage = i;
      cv.NotifyAll();
    }
  });
  {
    MutexLock lock(&mu);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (stage < 3) {
      if (cv.WaitUntil(lock, deadline)) break;
    }
    EXPECT_EQ(stage, 3);
  }
  stepper.join();
}

TEST(SyncTest, NotifyAllWakesEveryWaiter) {
  Mutex mu{LockRank::kJob, "test"};
  CondVar cv;
  bool go = false;
  int awake = 0;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(&mu);
      while (!go) cv.Wait(lock);
      ++awake;
    });
  }
  {
    MutexLock lock(&mu);
    go = true;
    cv.NotifyAll();
  }
  for (auto& th : waiters) th.join();
  MutexLock lock(&mu);
  EXPECT_EQ(awake, 4);
}

// ---------------------------------------------------------------------------
// Ranked lock hierarchy
// ---------------------------------------------------------------------------

TEST(LockRankTest, RankNamesRoundTrip) {
  EXPECT_STREQ(LockRankName(LockRank::kLogging), "kLogging");
  EXPECT_STREQ(LockRankName(LockRank::kLifecycle), "kLifecycle");
}

TEST(LockRankTest, DescendingAcquisitionIsAllowed) {
  ScopedDetect detect(true);
  Mutex outer{LockRank::kServer, "outer"};
  Mutex inner{LockRank::kQueue, "inner"};
  MutexLock outer_lock(&outer);
  MutexLock inner_lock(&inner);
  EXPECT_EQ(lock_internal::HeldDepthForTesting(), 2);
}

TEST(LockRankTest, HeldStackDrainsOnRelease) {
  ScopedDetect detect(true);
  Mutex mu{LockRank::kJob, "drain"};
  EXPECT_EQ(lock_internal::HeldDepthForTesting(), 0);
  {
    MutexLock lock(&mu);
    EXPECT_EQ(lock_internal::HeldDepthForTesting(), 1);
  }
  EXPECT_EQ(lock_internal::HeldDepthForTesting(), 0);
}

// Each violation runs in the EXPECT_DEATH child process, so the validator
// is armed there without touching the parent's state or lock graph.
void AcquireInverted() {
  SetDeadlockDetectForTesting(true);
  Mutex low{LockRank::kObs, "low"};
  Mutex high{LockRank::kJob, "high"};
  MutexLock inner(&low);
  MutexLock outer(&high);  // hqcheck:allow(lock-nesting)
}

void AcquireSameRankPairWithoutMutexLock2() {
  SetDeadlockDetectForTesting(true);
  Mutex a{LockRank::kJob, "a"};
  Mutex b{LockRank::kJob, "b"};
  MutexLock lock_a(&a);
  MutexLock lock_b(&b);  // hqcheck:allow(lock-nesting)
}

void ReacquireHeldMutex() {
  SetDeadlockDetectForTesting(true);
  Mutex mu{LockRank::kJob, "self"};
  mu.Lock();
  mu.Lock();  // self-deadlock without the validator
}

void TryLockInverted() {
  SetDeadlockDetectForTesting(true);
  Mutex low{LockRank::kObs, "low"};
  Mutex high{LockRank::kJob, "high"};
  MutexLock inner(&low);
  (void)high.TryLock();
}

TEST(LockRankDeathTest, RankInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(AcquireInverted(), "lock hierarchy violation");
}

TEST(LockRankDeathTest, SameRankDoubleAcquireAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(AcquireSameRankPairWithoutMutexLock2(), "lock hierarchy violation");
}

TEST(LockRankDeathTest, ReacquiringHeldMutexAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ReacquireHeldMutex(), "lock hierarchy violation");
}

TEST(LockRankDeathTest, TryLockInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(TryLockInverted(), "lock hierarchy violation");
}

TEST(LockRankTest, MutexLock2AllowsSameRankPairsEitherWay) {
  ScopedDetect detect(true);
  Mutex a{LockRank::kJob, "pair_a"};
  Mutex b{LockRank::kJob, "pair_b"};
  {
    MutexLock2 both(&a, &b);
    EXPECT_EQ(lock_internal::HeldDepthForTesting(), 2);
  }
  {
    MutexLock2 both(&b, &a);  // argument order must not matter
    EXPECT_EQ(lock_internal::HeldDepthForTesting(), 2);
  }
  EXPECT_EQ(lock_internal::HeldDepthForTesting(), 0);
}

TEST(LockRankTest, MutexLock2OrdersMixedRanksByRank) {
  ScopedDetect detect(true);
  Mutex high{LockRank::kServer, "mixed_high"};
  Mutex low{LockRank::kQueue, "mixed_low"};
  // Lower-rank-first argument order still acquires the higher rank first.
  MutexLock2 both(&low, &high);
  EXPECT_EQ(lock_internal::HeldDepthForTesting(), 2);
}

TEST(LockOrderGraphTest, RecordsObservedEdges) {
  LockOrderGraph::Global().ResetForTesting();
  Mutex outer{LockRank::kServer, "graph_outer"};
  Mutex inner{LockRank::kQueue, "graph_inner"};
  {
    MutexLock outer_lock(&outer);
    MutexLock inner_lock(&inner);
  }
  LockOrderSnapshot snap = LockOrderGraph::Global().Snapshot();
  ASSERT_EQ(snap.edges.size(), 1u);
  EXPECT_EQ(snap.edges[0].holder, LockRank::kServer);
  EXPECT_EQ(snap.edges[0].acquired, LockRank::kQueue);
  EXPECT_EQ(snap.edges[0].count, 1u);
  EXPECT_FALSE(snap.has_cycle);
  LockOrderGraph::Global().ResetForTesting();
}

TEST(LockOrderGraphTest, RecordsPerInstanceNameEdges) {
  LockOrderGraph::Global().ResetForTesting();
  Mutex outer{LockRank::kServer, "name_outer"};
  Mutex inner_a{LockRank::kQueue, "name_inner_a"};
  Mutex inner_b{LockRank::kQueue, "name_inner_b"};
  for (int i = 0; i < 3; ++i) {
    MutexLock outer_lock(&outer);
    MutexLock inner_lock(&inner_a);
  }
  {
    MutexLock outer_lock(&outer);
    MutexLock inner_lock(&inner_b);
  }
  LockOrderSnapshot snap = LockOrderGraph::Global().Snapshot();
  // One rank edge, but two distinct per-instance name edges beneath it.
  ASSERT_EQ(snap.edges.size(), 1u);
  ASSERT_EQ(snap.name_edges.size(), 2u);
  uint64_t count_a = 0, count_b = 0;
  for (const LockOrderNameEdge& e : snap.name_edges) {
    EXPECT_EQ(e.holder, "name_outer");
    if (e.acquired == "name_inner_a") count_a = e.count;
    if (e.acquired == "name_inner_b") count_b = e.count;
  }
  EXPECT_EQ(count_a, 3u);
  EXPECT_EQ(count_b, 1u);
  EXPECT_EQ(snap.dropped_name_edges, 0u);
  LockOrderGraph::Global().ResetForTesting();
  EXPECT_TRUE(LockOrderGraph::Global().Snapshot().name_edges.empty());
}

TEST(LockOrderGraphTest, UnnamedMutexFallsBackToRankNameInNameEdges) {
  LockOrderGraph::Global().ResetForTesting();
  Mutex outer{LockRank::kServer, "named_holder"};
  Mutex inner{LockRank::kQueue};  // no instance name
  {
    MutexLock outer_lock(&outer);
    MutexLock inner_lock(&inner);
  }
  LockOrderSnapshot snap = LockOrderGraph::Global().Snapshot();
  ASSERT_EQ(snap.name_edges.size(), 1u);
  EXPECT_EQ(snap.name_edges[0].holder, "named_holder");
  EXPECT_EQ(snap.name_edges[0].acquired, LockRankName(LockRank::kQueue));
  LockOrderGraph::Global().ResetForTesting();
}

TEST(LockOrderGraphTest, InversionRecordedAsCycleWhenValidatorOff) {
  LockOrderGraph::Global().ResetForTesting();
  ScopedDetect detect(false);  // production mode: record, don't abort
  Mutex a{LockRank::kQueue, "cycle_a"};
  Mutex b{LockRank::kJob, "cycle_b"};
  {
    MutexLock lock_a(&a);
    // hqcheck:allow(lock-nesting) -- intentional inversion
    MutexLock lock_b(&b);
  }
  {
    MutexLock lock_b(&b);
    // Descending (kJob > kQueue), but the checker resolves test-local names
    // file-wide. hqcheck:allow(lock-nesting)
    MutexLock lock_a(&a);
  }
  LockOrderSnapshot snap = LockOrderGraph::Global().Snapshot();
  EXPECT_TRUE(snap.has_cycle);
  ASSERT_GE(snap.cycle.size(), 3u);
  EXPECT_EQ(snap.cycle.front(), snap.cycle.back());
  LockOrderGraph::Global().ResetForTesting();
}

TEST(LockOrderGraphTest, ContentionIsCounted) {
  LockOrderGraph::Global().ResetForTesting();
  Mutex mu{LockRank::kJob, "contended"};
  std::atomic<bool> held{false};
  std::thread holder([&] {
    MutexLock lock(&mu);
    held.store(true);
    // hqcheck:allow(blocking-under-lock) -- the test needs a held, contended mutex
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  while (!held.load()) std::this_thread::yield();
  {
    MutexLock lock(&mu);  // must block: the holder sleeps while holding
  }
  holder.join();
  LockOrderSnapshot snap = LockOrderGraph::Global().Snapshot();
  EXPECT_GE(snap.contention[static_cast<int>(LockRank::kJob)], 1u);
  LockOrderGraph::Global().ResetForTesting();
}

TEST(LockWaitHistogramTest, BucketBoundsMirrorObsHistogramLayout) {
  // The server exports per-rank wait histograms by splicing these arrays
  // into an obs::HistogramSnapshot; the layouts must agree exactly or the
  // exported quantiles silently lie (see sync.h kNumLockWaitBuckets).
  const std::vector<double>& obs_bounds = obs::Histogram::BucketBounds();
  ASSERT_EQ(static_cast<size_t>(kNumLockWaitBuckets), obs_bounds.size() + 1);
  const double* bounds = LockWaitBucketBounds();
  for (size_t i = 0; i < obs_bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], obs_bounds[i]) << "bucket " << i;
    if (i > 0) {
      EXPECT_GT(bounds[i], bounds[i - 1]) << "bounds must ascend";
    }
  }
}

TEST(LockWaitHistogramTest, RecordWaitFillsTheRightBucket) {
  LockOrderGraph::Global().ResetForTesting();
  const double* bounds = LockWaitBucketBounds();
  const int rank = static_cast<int>(LockRank::kPool);
  // One wait inside the first bucket, one just past the last finite bound
  // (lands in the implicit +Inf bucket).
  const uint64_t small_nanos = static_cast<uint64_t>(bounds[0] * 1e9 / 2);
  const uint64_t huge_nanos =
      static_cast<uint64_t>(bounds[kNumLockWaitBuckets - 2] * 1e9 * 2);
  LockOrderGraph::Global().RecordWait(LockRank::kPool, small_nanos);
  LockOrderGraph::Global().RecordWait(LockRank::kPool, huge_nanos);
  LockOrderSnapshot snap = LockOrderGraph::Global().Snapshot();
  EXPECT_EQ(snap.wait_count[rank], 2u);
  EXPECT_NEAR(snap.wait_sum_seconds[rank], (small_nanos + huge_nanos) / 1e9, 1e-6);
  EXPECT_EQ(snap.wait_buckets[rank][0], 1u);
  EXPECT_EQ(snap.wait_buckets[rank][kNumLockWaitBuckets - 1], 1u);
  uint64_t total = 0;
  for (int b = 0; b < kNumLockWaitBuckets; ++b) total += snap.wait_buckets[rank][b];
  EXPECT_EQ(total, 2u);
  LockOrderGraph::Global().ResetForTesting();
}

TEST(LockWaitHistogramTest, ContendedAcquisitionRecordsAWait) {
  LockOrderGraph::Global().ResetForTesting();
  Mutex mu{LockRank::kJob, "waited"};
  std::atomic<bool> held{false};
  std::thread holder([&] {
    MutexLock lock(&mu);
    held.store(true);
    // hqcheck:allow(blocking-under-lock) -- the test needs a held, contended mutex
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  while (!held.load()) std::this_thread::yield();
  {
    MutexLock lock(&mu);  // blocks ~20ms behind the holder
  }
  holder.join();
  LockOrderSnapshot snap = LockOrderGraph::Global().Snapshot();
  const int rank = static_cast<int>(LockRank::kJob);
  EXPECT_GE(snap.wait_count[rank], 1u);
  EXPECT_GT(snap.wait_sum_seconds[rank], 0.0);
  LockOrderGraph::Global().ResetForTesting();
}

TEST(LockOrderGraphTest, MutexLock2SameRankLeavesNoSelfEdge) {
  LockOrderGraph::Global().ResetForTesting();
  ScopedDetect detect(true);
  Mutex a{LockRank::kJob, "noedge_a"};
  Mutex b{LockRank::kJob, "noedge_b"};
  {
    MutexLock2 both(&a, &b);
  }
  LockOrderSnapshot snap = LockOrderGraph::Global().Snapshot();
  EXPECT_TRUE(snap.edges.empty());
  EXPECT_FALSE(snap.has_cycle);
  LockOrderGraph::Global().ResetForTesting();
}

}  // namespace
}  // namespace hyperq::common

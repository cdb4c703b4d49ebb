// Known-bad input for the blocking-under-lock rule.
#include <chrono>
#include <thread>

#include "common/bounded_queue.h"
#include "common/sync.h"

namespace demo {

common::Mutex g_mu{common::LockRank::kJob, "demo"};
common::Mutex g_inner{common::LockRank::kQueue, "demo_inner"};
common::BoundedQueue<int> g_queue(4);
common::CondVar g_cv;

void DeadlockProne() {
  common::MutexLock lock(&g_mu);
  g_queue.Put(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

void SplitAcrossLines() {
  common::MutexLock lock(&g_mu);
  g_queue
      .Put(7);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(5));
}

void WaitWithOuterLockHeld() {
  common::MutexLock outer(&g_mu);
  // kJob > kQueue descends; only the wait below is wrong.
  common::MutexLock inner(&g_inner);
  g_cv.WaitFor(inner,
               std::chrono::milliseconds(1));
}

void WaitAtDepthOneIsTheIdiom() {
  common::MutexLock lock(&g_mu);
  g_cv.WaitFor(lock, std::chrono::milliseconds(1));
}

void Fine() {
  {
    common::MutexLock lock(&g_mu);
  }
  g_queue.Put(2);
}

void Suppressed() {
  common::MutexLock lock(&g_mu);
  g_queue.Put(3);  // hqcheck:allow(blocking-under-lock)
}

}  // namespace demo

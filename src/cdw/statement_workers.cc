#include "cdw/statement_workers.h"

#include <algorithm>
#include <thread>

#include "common/thread_pool.h"

namespace hyperq::cdw {

namespace {

/// The statement threads of the process, shared by every warehouse.
common::ThreadPool& Pool() {
  static common::ThreadPool pool(std::thread::hardware_concurrency());
  return pool;
}

}  // namespace

StatementWorkers::StatementWorkers(size_t workers, obs::Counter* taken)
    : workers_(std::max<size_t>(1, workers)), taken_(taken) {}

void StatementWorkers::ForEach(size_t parts, const std::function<void(size_t)>& part) {
  const size_t used = std::min(parts, workers_);
  if (used < kMinParallelParts) {
    for (size_t i = 0; i < parts; ++i) part(i);
    return;
  }
  if (taken_ != nullptr) taken_->Increment();
  std::atomic<size_t> next{0};
  auto drain = [&next, &part, parts] {
    for (size_t i = next.fetch_add(1); i < parts; i = next.fetch_add(1)) part(i);
  };
  common::ThreadPool& pool = Pool();
  for (size_t w = 0; w < used; ++w) {
    if (!pool.Submit(drain)) {
      // The pool is shutting down: the calling thread runs every part that
      // no task has taken.
      drain();
      break;
    }
  }
  // Also waits for the tasks of another warehouse's statement, if one
  // overlaps this one; the pool is idle between statements otherwise.
  pool.WaitIdle();
}

}  // namespace hyperq::cdw

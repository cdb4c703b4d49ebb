#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

#include "obs/metrics.h"

/// \file statement_workers.h
/// The embedded CDW's statement-scoped worker pool. Statements still run one
/// at a time under the CdwServer statement lock; only the work inside one
/// statement is split into parts: COPY reads one staged object per part and
/// INSERT…SELECT evaluates one row morsel per part. Each part writes its own
/// segment, and the statement merges the segments in part order, so the
/// outcome (rows, their order, and which error is reported) does not depend
/// on the worker count. DESIGN.md "Embedded CDW: parallel statements" has the
/// rules.

namespace hyperq::cdw {

/// Rows of one INSERT…SELECT morsel.
inline constexpr size_t kMorselRows = 8192;

/// A statement takes the pool only when it has at least this many parts (row
/// morsels or staged objects to read); a smaller one runs on the calling
/// thread with no hand-off.
inline constexpr size_t kMinParallelParts = 2;

/// A COPY takes the pool only when the objects it reads hold at least this
/// many bytes in all: a few small objects cost less to read in turn than to
/// hand to the pool.
inline constexpr size_t kMinParallelCopyBytes = size_t{1} << 20;

class StatementWorkers {
 public:
  /// Up to `workers` threads share one statement's parts while the calling
  /// thread waits. The threads are one process-wide common::ThreadPool of
  /// hardware-concurrency threads, created by the first statement that
  /// takes it. 1 (or 0) keeps every statement on the calling thread.
  /// `taken` (optional) counts the statements that took the pool.
  explicit StatementWorkers(size_t workers, obs::Counter* taken = nullptr);

  StatementWorkers(const StatementWorkers&) = delete;
  StatementWorkers& operator=(const StatementWorkers&) = delete;

  /// Runs part(i) once for every i in [0, parts) and returns when all have
  /// finished. Below kMinParallelParts parts or with one worker, the parts
  /// run in order on the calling thread; otherwise min(parts, workers) pool
  /// tasks each take the next part until none is left.
  void ForEach(size_t parts, const std::function<void(size_t)>& part);

  size_t workers() const { return workers_; }

 private:
  const size_t workers_;
  obs::Counter* const taken_;
};

/// Lowers `*min` to `value` when it is higher: how a statement's parts agree
/// on the lowest part (or row) that failed.
inline void LowerTo(std::atomic<size_t>* min, size_t value) {
  size_t seen = min->load(std::memory_order_relaxed);
  while (value < seen && !min->compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace hyperq::cdw

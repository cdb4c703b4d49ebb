#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

/// \file trace.h
/// Per-job pipeline tracing. Every ETL job owns one Trace — a flat,
/// append-only list of phase spans forming a tree via parent ids — created
/// when the job starts and retained (like the job objects themselves) after
/// completion so clients can pull the full span tree post-hoc through
/// `HyperQServer::JobTrace()`.
///
/// Phase taxonomy (one span name per pipeline stage of Figure 2a):
///   import (root) -> decode -> credit_wait -> convert -> write -> compress
///                 -> upload (object-store PUT) -> copy (CDW COPY) -> apply
/// Export jobs use: export (root) -> query -> export_chunk.
///
/// Span recording is mutex-guarded (spans are per-chunk/per-phase, orders of
/// magnitude rarer than row operations) and bounded: past `max_spans` new
/// spans are counted in `dropped()` instead of stored, so a pathological job
/// cannot grow a trace without bound.

namespace hyperq::obs {

enum class Phase {
  kImport,
  kExport,
  kStream,
  kParcelDecode,
  kCreditWait,
  kRowConvert,
  kFileWrite,
  kCompress,
  kStorePut,
  kCdwCopy,
  kDmlApply,
  kQuery,
  kExportChunk,
  kRetryBackoff,
  kOther,
};

const char* PhaseName(Phase phase);

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;  ///< 0 = no parent (only the root span)
  Phase phase = Phase::kOther;
  std::string name;
  int64_t start_micros = 0;  ///< relative to the trace epoch
  int64_t end_micros = -1;   ///< -1 while the span is open
  uint64_t thread_id = 0;    ///< hashed std::thread::id, correlates with logs

  bool finished() const { return end_micros >= 0; }
  int64_t duration_micros() const { return finished() ? end_micros - start_micros : 0; }
};

class Trace {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit Trace(std::string job_id, Phase root_phase = Phase::kImport,
                 size_t max_spans = 4096);

  /// Opens a span; returns its id (0 when the trace is full — EndSpan(0) is
  /// a safe no-op). `parent_id` 0 attaches to the root span.
  uint64_t StartSpan(Phase phase, std::string name, uint64_t parent_id = 0)
      HQ_EXCLUDES(mu_);
  void EndSpan(uint64_t span_id) HQ_EXCLUDES(mu_);

  /// Records an already-measured interval. For call sites that time first
  /// and attribute to a job afterwards (e.g. parcel decode happens before
  /// the owning job is known).
  void RecordSpan(Phase phase, std::string name, uint64_t parent_id, TimePoint start,
                  TimePoint end) HQ_EXCLUDES(mu_);

  /// Closes the root span (job completion).
  void Finish();

  uint64_t root_id() const { return 1; }
  const std::string& job_id() const { return job_id_; }

  std::vector<SpanRecord> spans() const HQ_EXCLUDES(mu_);
  uint64_t dropped() const HQ_EXCLUDES(mu_);

  /// Compact single-object JSON: {"job_id":...,"spans":[...]}.
  std::string ToJson() const;

 private:
  uint64_t ThreadHash() const;

  std::string job_id_;
  TimePoint epoch_;
  size_t max_spans_;
  mutable common::Mutex mu_{common::LockRank::kObs, "trace"};
  std::vector<SpanRecord> spans_ HQ_GUARDED_BY(mu_);
  uint64_t next_id_ HQ_GUARDED_BY(mu_) = 1;
  uint64_t dropped_ HQ_GUARDED_BY(mu_) = 0;
};

/// Null-safe RAII span: no-op when `trace` is null (observability off).
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, Phase phase, std::string name, uint64_t parent_id = 0)
      : trace_(trace),
        id_(trace == nullptr ? 0 : trace->StartSpan(phase, std::move(name), parent_id)) {}
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
    trace_ = nullptr;
  }
  uint64_t id() const { return id_; }

 private:
  Trace* trace_;
  uint64_t id_;
};

/// Node-wide directory of per-job traces. Traces are shared_ptrs so span
/// trees survive the jobs (and the tracer) that produced them.
class Tracer {
 public:
  /// Creates (or returns the existing) trace for `job_id`.
  std::shared_ptr<Trace> StartTrace(const std::string& job_id,
                                    Phase root_phase = Phase::kImport) HQ_EXCLUDES(mu_);
  std::shared_ptr<Trace> Find(const std::string& job_id) const HQ_EXCLUDES(mu_);
  std::vector<std::string> job_ids() const HQ_EXCLUDES(mu_);

 private:
  mutable common::Mutex mu_{common::LockRank::kObs, "tracer"};
  std::map<std::string, std::shared_ptr<Trace>> traces_ HQ_GUARDED_BY(mu_);
};

}  // namespace hyperq::obs

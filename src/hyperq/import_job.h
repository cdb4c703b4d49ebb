#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sequenced_queue.h"
#include "common/stopwatch.h"
#include "common/sync.h"
#include "hyperq/commit_tail.h"

/// \file import_job.h
/// One virtualized import job (Figure 2a of the paper): receives legacy data
/// chunks from any number of parallel client sessions, converts them in the
/// background, and stages them through the commit tail (commit_tail.h) as
/// ONE sealed batch over rows [1, N].
///
/// Pipeline stages and hand-offs (Sections 4-5):
///   session thread: CreditManager.Acquire -> submit -> ack client
///   converter pool: legacy encoding -> staging bytes (+ data-error capture)
///   sequenced queue: restores chunk order
///   writer threads: return credit, stage the chunk into the writer's lane,
///                   merge the lane into the job's batch under mu_ at the end
///   EndLoad: seal -> upload -> COPY (+ the job-level quality abort)
///   ApplyDml: ET inserts -> adaptive application -> drop staging table
/// A failed EndLoad or ApplyDml is sticky: it ends the job, and every later
/// call returns the same failure.

namespace hyperq::core {

struct PhaseTimings {
  double acquisition_seconds = 0;  ///< data receipt + conversion + upload + COPY
  double application_seconds = 0;  ///< DML transformation in the CDW
  double other_seconds = 0;        ///< startup/teardown bookkeeping
};

struct AcquisitionStats {
  uint64_t chunks = 0;
  uint64_t rows_received = 0;
  uint64_t rows_staged = 0;
  uint64_t bytes_received = 0;
  uint64_t data_errors = 0;
  uint64_t files_uploaded = 0;
  uint64_t bytes_uploaded = 0;
  uint64_t rows_copied = 0;
  /// Staging bytes written by the converter stage (CSV text or HQB1 blocks,
  /// per HyperQOptions::staging_format); bytes_staged / rows_staged is the
  /// exported staging-bytes-per-row gauge.
  uint64_t bytes_staged = 0;
  /// Chunks dropped after exhausting per-chunk staging retries (graceful
  /// degradation: each lands in the ET table with code 9058 instead of
  /// failing the job).
  uint64_t chunks_abandoned = 0;
  /// Rows the data-quality gate diverted to the HQ_QRTN_<job> table.
  uint64_t rows_quarantined = 0;
};

class ImportJob {
 public:
  /// Creates CDW-side state (staging + error tables) and starts the writer
  /// stage. `job_id` must be unique on the node.
  static common::Result<std::shared_ptr<ImportJob>> Create(const std::string& job_id,
                                                           const legacy::BeginLoadBody& begin,
                                                           JobContext ctx);

  ~ImportJob();

  /// Accepts one data chunk from a client session. Blocks while the credit
  /// pool is empty (back-pressure); the caller acknowledges the chunk to the
  /// client after this returns.
  common::Status SubmitChunk(const legacy::DataChunkBody& chunk) HQ_EXCLUDES(mu_);

  /// Drains the pipeline, seals the job's one batch, uploads its staging
  /// files, and COPYs them into the staging table. Idempotent; a failure
  /// ends the job and is returned by every later call.
  common::Status FinishAcquisition(uint64_t client_total_chunks, uint64_t client_total_rows)
      HQ_EXCLUDES(mu_);

  /// Application phase: transpiles and applies the legacy DML with adaptive
  /// error handling; records data errors; drops the staging table.
  common::Result<legacy::JobReportBody> ApplyDml(const std::string& label,
                                                 const std::string& sql)
      HQ_EXCLUDES(mu_);

  const std::string& job_id() const { return job_id_; }
  PhaseTimings timings() const HQ_EXCLUDES(mu_);
  AcquisitionStats stats() const HQ_EXCLUDES(mu_);
  DmlApplyResult dml_result() const HQ_EXCLUDES(mu_);
  /// Per-job data-quality outcome (enabled=false when the gate is off).
  /// Complete once FinishAcquisition returns.
  QualityJobReport quality_report() const HQ_EXCLUDES(mu_);
  /// Quarantine table name ("" when the gate is off). The table outlives the
  /// job on purpose: quarantined rows are the operator's diagnostics.
  const std::string& quarantine_table() const { return tail_->quarantine_table(); }
  /// The job's span tree (null when observability is disabled).
  std::shared_ptr<obs::Trace> trace() const { return tail_->trace(); }

 private:
  ImportJob(std::string job_id, std::unique_ptr<CommitTail> tail);

  struct WorkItem {
    ConvertedChunk converted;
    Credit credit;
    common::MemoryReservation reservation;
    common::Status status;  ///< conversion failure (fatal)
  };

  void WriterLoop(size_t writer_index) HQ_EXCLUDES(mu_);
  void NoteFatal(const common::Status& s) HQ_EXCLUDES(mu_);
  common::Status fatal_status() const HQ_EXCLUDES(mu_);
  /// Records a failed EndLoad/ApplyDml as the job's sticky outcome and ends
  /// the job.
  void Fail(const common::Status& s) HQ_EXCLUDES(mu_);
  common::Status StageBatch(uint64_t client_total_chunks, uint64_t client_total_rows)
      HQ_EXCLUDES(mu_);
  common::Result<legacy::JobReportBody> ApplyBatch(const std::string& sql) HQ_EXCLUDES(mu_);

  std::string job_id_;
  std::unique_ptr<CommitTail> tail_;
  obs::Gauge* converter_queue_ = nullptr;

  common::SequencedQueue<WorkItem> ordered_chunks_;
  std::vector<std::thread> writer_threads_;

  mutable common::Mutex mu_{common::LockRank::kJob, "import_job"};
  common::CondVar conversions_done_;
  uint64_t outstanding_conversions_ HQ_GUARDED_BY(mu_) = 0;
  uint64_t chunk_counter_ HQ_GUARDED_BY(mu_) = 0;
  uint64_t row_counter_ HQ_GUARDED_BY(mu_) = 0;
  uint64_t bytes_received_ HQ_GUARDED_BY(mu_) = 0;
  /// The job's one batch: writers merge their lanes into it as they exit;
  /// EndLoad and ApplyDml take it out to work on it with mu_ released.
  SealedBatch batch_ HQ_GUARDED_BY(mu_);
  QualityJobReport quality_report_ HQ_GUARDED_BY(mu_);
  common::Status fatal_ HQ_GUARDED_BY(mu_);
  bool acquisition_finished_ HQ_GUARDED_BY(mu_) = false;

  AcquisitionStats stats_ HQ_GUARDED_BY(mu_);
  common::Stopwatch acquisition_timer_;
  PhaseTimings timings_ HQ_GUARDED_BY(mu_);
  DmlApplyResult dml_result_ HQ_GUARDED_BY(mu_);
};

}  // namespace hyperq::core

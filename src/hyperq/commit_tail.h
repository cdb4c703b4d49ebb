#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdw/cdw_server.h"
#include "cloudstore/object_store.h"
#include "common/buffer_pool.h"
#include "common/memory_tracker.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "hyperq/credit_manager.h"
#include "hyperq/data_converter.h"
#include "hyperq/error_handler.h"
#include "hyperq/file_writer.h"
#include "hyperq/hyperq_config.h"
#include "legacy/parcel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/ast.h"

/// \file commit_tail.h
/// The commit tail shared by batch imports and streaming micro-batches
/// (Figure 2a): converted chunks are staged into local files, the files are
/// uploaded, COPYed into the job's staging table, and the DML is applied
/// with the adaptive error handler (Section 7). Both job kinds run exactly
/// this code; an import is one sealed batch over rows [1, N], a stream seals
/// one batch per CommitBatch. Because HQ_ROWNUM is monotone, N micro-batch
/// applies over consecutive row ranges equal one whole-table apply.
///
/// What stays per kind is the acquisition front end (the import's converter
/// pool and writer threads, the stream's synchronous session-thread
/// conversion) and the policy around the tail (see DESIGN.md "Commit tail").

namespace hyperq::core {

struct JobContext {
  cdw::CdwServer* cdw = nullptr;
  cloud::ObjectStore* store = nullptr;
  CreditManager* credits = nullptr;
  common::ThreadPool* converter_pool = nullptr;
  common::MemoryTracker* memory = nullptr;
  /// Node-wide recycler for chunk payload copies and converted CSV buffers
  /// (null = allocate fresh per chunk); set by the HyperQServer.
  common::BufferPool* buffers = nullptr;
  /// Node-wide observability (null = disabled); set by the HyperQServer.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  HyperQOptions options;
};

/// The load description both Begin verbs carry (BeginLoadBody and
/// BeginStreamBody share these fields).
struct LoadTarget {
  std::string target_table;
  std::string error_table_et;  ///< defaults to <target>_ET
  std::string error_table_uv;  ///< defaults to <target>_UV
  legacy::DataFormat format = legacy::DataFormat::kVartext;
  char delimiter = '|';
  types::Schema layout;
  uint64_t max_errors = 0;  ///< 0 = node default
  int32_t max_retries = 0;  ///< 0 = node default

  template <typename Begin>
  static LoadTarget From(const Begin& begin) {
    LoadTarget t;
    t.target_table = begin.target_table;
    t.error_table_et =
        begin.error_table_et.empty() ? begin.target_table + "_ET" : begin.error_table_et;
    t.error_table_uv =
        begin.error_table_uv.empty() ? begin.target_table + "_UV" : begin.error_table_uv;
    t.format = begin.format;
    t.delimiter = begin.delimiter;
    t.layout = begin.layout;
    t.max_errors = begin.max_errors;
    t.max_retries = begin.max_retries;
    return t;
  }
};

/// What tells the two job kinds apart to the shared tail: names only.
struct JobKind {
  obs::Phase root_phase;
  const char* staging_table_prefix;
  const char* remote_root;
  /// Prefix of the kind's received/data-error counters.
  const char* metric_prefix;
  /// Prefix of the kind's started/completed/failed/active job metrics.
  const char* jobs_metric;
};
inline constexpr JobKind kImportKind{obs::Phase::kImport, "HQ_STG_", "staging/", "hyperq_",
                                     "hyperq_import_jobs_"};
inline constexpr JobKind kStreamKind{obs::Phase::kStream, "HQ_STRM_", "stream/",
                                     "hyperq_stream_", "hyperq_stream_jobs_"};

/// Data-quality aggregates, constraint-id keyed: ids are spec-ordered and so
/// stable across a stream's drift-recompiled converters, field indices are
/// not.
struct QualityTotals {
  uint64_t rows_checked = 0;
  uint64_t rows_quarantined = 0;
  std::vector<uint64_t> violations_by_id;
  std::vector<uint64_t> nulls_by_id;  ///< nullrate constraints only

  void Add(const QualityTotals& other);
  double violation_rate() const;
};

/// One batch's staged state: every file, error and counter the commit
/// needs. A stream keeps a sealed batch across a failed commit, so a retry
/// re-runs the tail on exactly the same rows; errors_recorded makes the
/// ET-insert stage resumable across attempts.
struct SealedBatch {
  uint64_t batch_seq = 0;  ///< stream commit sequence (0 for an import)
  uint64_t first_row = 0;  ///< HQ_ROWNUM range the DML applies to
  uint64_t last_row = 0;
  std::chrono::steady_clock::time_point open_time;
  std::vector<FinalizedFile> files;
  /// One bit per cdw::StagingFormat present among `files` (the COPY format).
  uint8_t file_formats = 0;
  std::vector<RecordError> errors;
  size_t errors_recorded = 0;  ///< ET rows durably inserted so far
  uint64_t chunks = 0;
  uint64_t rows_staged = 0;
  uint64_t bytes_staged = 0;
  uint64_t chunks_abandoned = 0;
  /// Quality-gate state (empty/zero when the gate is off).
  std::vector<FinalizedFile> qrtn_files;
  uint64_t qrtn_rows_staged = 0;  ///< target of the quarantine COPY check
  QualityTotals quality;

  void Merge(SealedBatch&& other);
  void RemoveLocalFiles() const;
};

/// One writer's staging file series for a batch; files are opened lazily.
/// The quarantine series is always CSV and rides under `prefix` + "_qrtn".
struct StagingLane {
  std::string prefix;
  cdw::StagingFormat format = cdw::StagingFormat::kCsv;
  std::unique_ptr<FileWriter> writer;
  std::unique_ptr<FileWriter> qrtn;
};

class CommitTail {
 public:
  /// Job setup: validates the context and the node's fault and quality
  /// specs (an unparseable spec is a ProtocolError), builds the staging
  /// schema and converter, applies the per-job error-handling overrides, and
  /// recreates the staging, ET, UV and quarantine tables with fresh COPY
  /// ledgers. `job_id` must be unique on the node.
  static common::Result<std::unique_ptr<CommitTail>> Create(const JobKind& kind,
                                                            const std::string& job_id,
                                                            LoadTarget target, JobContext ctx);
  ~CommitTail();

  CommitTail(const CommitTail&) = delete;
  CommitTail& operator=(const CommitTail&) = delete;

  /// Counts one received chunk in the kind's received counters.
  void CountReceived(const legacy::DataChunkBody& chunk) const;

  /// Converts one chunk with the current converter (convert span + timer).
  common::Result<ConvertedChunk> Convert(const ConversionInput& input) const;

  /// Stages one converted chunk into `batch` through `lane`: the append is
  /// retried, and a chunk whose retries run out is abandoned into `batch`
  /// as an ET 9058 row next to its own conversion errors instead of failing
  /// the job. The quarantine rows follow the same path. Non-retryable
  /// failures are returned. The caller owns `lane` and `batch` exclusively.
  common::Status StageChunk(ConvertedChunk converted, StagingLane* lane,
                            SealedBatch* batch) const;

  /// Finalizes the lane's open files into `batch`.
  common::Status FinishLane(StagingLane* lane, SealedBatch* batch) const;

  /// Uploads the batch's files under `subdir` of the job's remote prefixes
  /// (resume-aware), COPYs them into the staging and quarantine tables, and
  /// checks both row counts. `stage_rows` false ships only the quarantine
  /// (a stream batch rejected by the quality gate). Idempotent: a re-run
  /// re-puts the same keys and the COPY ledger skips ingested objects.
  common::Status Stage(const SealedBatch& batch, const std::string& subdir,
                       bool stage_rows) const;

  /// Records the batch's data errors in the ET table, resuming at
  /// errors_recorded, then applies `dml` over [first_row, last_row]. A null
  /// `dml` records the errors only. On failure, errors_recorded ==
  /// errors.size() means the DML apply itself failed.
  common::Result<DmlApplyResult> Apply(const sql::Statement* dml, SealedBatch* batch) const;

  /// Ends the job once: releases the active gauge, counts the job completed
  /// or failed by `outcome`, and finishes the trace. Later calls do nothing.
  void End(const common::Status& outcome);

  /// The job's retry policy for one substrate hop: io_retry options, the
  /// named endpoint's circuit breaker, and (when tracing) retry spans.
  common::RetryPolicy MakeIoRetry(const char* breaker_endpoint) const;

  /// The quality report over `totals` (enabled=false when the gate is off).
  QualityJobReport QualityReport(const QualityTotals& totals) const;

  const JobContext& ctx() const { return ctx_; }
  const LoadTarget& target() const { return target_; }
  const DataConverter& converter() const { return converter_; }
  /// Stream schema drift: swaps the converter. Callers serialize this with
  /// every other use of the tail.
  void set_converter(DataConverter converter) { converter_ = std::move(converter); }
  /// The table's quality block (null when the gate is off), for recompiles.
  const TableQualitySpec* table_quality() const {
    return table_quality_.has_value() ? &*table_quality_ : nullptr;
  }
  const std::string& staging_table() const { return staging_table_; }
  const std::string& remote_prefix() const { return remote_prefix_; }
  const std::string& quarantine_table() const { return qrtn_table_; }
  const std::string& quarantine_prefix() const { return qrtn_remote_prefix_; }
  const std::shared_ptr<obs::Trace>& trace() const { return trace_; }

 private:
  CommitTail(const JobKind& kind, const std::string& job_id, LoadTarget target, JobContext ctx,
             DataConverter converter, std::optional<TableQualitySpec> table_quality);

  FileWriterOptions WriterOptions(cdw::StagingFormat format) const;
  common::Status StageQuality(const ConvertedChunk& converted, StagingLane* lane,
                              SealedBatch* batch) const;
  void Abandon(uint64_t row, const char* what, const common::Status& cause,
               SealedBatch* batch) const;
  common::Status Copy(const std::string& table, const std::string& prefix,
                      cdw::CopyFormat format, const char* what, uint64_t expected_rows) const;

  LoadTarget target_;
  JobContext ctx_;
  DataConverter converter_;
  std::optional<TableQualitySpec> table_quality_;
  std::string staging_table_;
  std::string remote_prefix_;
  std::string local_dir_;
  /// Quarantine path state (empty when the gate is off).
  std::string qrtn_table_;
  std::string qrtn_remote_prefix_;

  /// Node-wide instruments, cached once (all null when observability is
  /// off — hot paths test one pointer and skip).
  std::shared_ptr<obs::Trace> trace_;
  struct Instruments {
    obs::Counter* chunks = nullptr;
    obs::Counter* rows_received = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* data_errors = nullptr;
    obs::Counter* rows_staged = nullptr;
    obs::Counter* csv_reallocs = nullptr;
    obs::Counter* chunks_abandoned = nullptr;
    obs::Counter* files_uploaded = nullptr;
    obs::Counter* bytes_uploaded = nullptr;
    obs::Counter* rows_copied = nullptr;
    obs::Counter* jobs_completed = nullptr;
    obs::Counter* jobs_failed = nullptr;
    obs::Histogram* convert_seconds = nullptr;
    obs::Histogram* write_seconds = nullptr;
    obs::Histogram* compress_seconds = nullptr;
    obs::Histogram* upload_seconds = nullptr;
    obs::Histogram* apply_seconds = nullptr;
    obs::Gauge* jobs_active = nullptr;
    obs::Gauge* staging_bytes_per_row = nullptr;
    obs::Counter* rows_quarantined = nullptr;
    /// Violation rate of the last staged batch, in basis points.
    obs::Gauge* violation_rate_bp = nullptr;
    /// hyperq_quality_violations_total{constraint="..."}, id-indexed.
    std::vector<obs::Counter*> quality_violations;
  } m_;
  std::atomic<bool> ended_{false};
};

}  // namespace hyperq::core

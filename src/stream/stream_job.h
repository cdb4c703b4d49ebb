#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hyperq/commit_tail.h"
#include "legacy/parcel.h"
#include "sql/ast.h"

/// \file stream_job.h
/// Streaming micro-batch import (the "real-time" half of the paper's title,
/// layered on the batch load path following DOD-ETL's micro-batching and
/// METL's drift-tolerant mapping). A StreamJob is a long-lived import
/// session: chunks arrive continuously, the client cuts watermark-delimited
/// micro-batches with CommitBatch, and every commit seals the open batch and
/// runs it through the same commit tail an import ends with (commit_tail.h)
/// — upload, COPY, ET inserts, per-batch DML application — so the target
/// table trails the stream by one micro-batch. Stream-only policy around the
/// tail: per-batch quality rejection, the commit journal, poisoning, the
/// staging prune and COPY-ledger eviction.
///
/// Exactly-once, at two protocol levels:
///   - A *server-side* COPY retry after a lost ack is absorbed by the CDW's
///     per-table idempotence ledger: the re-issued COPY (scoped to the
///     batch's own staging prefix) skips already-ingested objects and
///     returns the cumulative count.
///   - A *client-side* CommitBatch replay (lost BatchCommitted reply) hits
///     the committed-batch journal and gets the recorded result back without
///     re-running any of the commit pipeline.
///   - A commit that *fails* (retries exhausted) keeps the sealed batch: the
///     stream's open-batch state is only retired once the whole pipeline has
///     succeeded, so a retried CommitBatch re-runs the pipeline on exactly
///     the same rows instead of acking an empty batch. Every stage up to the
///     DML apply is idempotent across such retries (uploads re-put identical
///     bytes to the same keys, COPY dedups through the ledger, ET inserts
///     resume past the rows already recorded); a failure in the DML apply
///     itself — the one stage whose partial effects cannot be re-run safely —
///     poisons the stream: the job ends as failed and every later call fails
///     loudly.
/// Batch prefixes are zero-padded, so ledger keys sort in commit order and
/// both eviction paths (per-batch ForgetCopiesWithPrefix here, the size cap
/// in CdwServerOptions) retire oldest-first.
///
/// Schema drift: a StreamLayout parcel switches the session's conversion
/// plan. Name-matched fields are remapped into the original target layout
/// (see ConversionPlan::CompileRemapped); new fields with no target are
/// dropped (counted), removed fields become NULLs. The staging table, DML
/// binding and HQ_ROWNUM bookkeeping all stay in the original layout, which
/// is what makes a drifting stream land byte-identical to a batch run of the
/// same logical rows.

namespace hyperq::stream {

struct StreamStats {
  uint64_t chunks = 0;
  uint64_t rows_received = 0;
  uint64_t batches_committed = 0;
  uint64_t rows_committed = 0;  ///< rows staged and COPYed across batches
  uint64_t data_errors = 0;
  uint64_t chunks_abandoned = 0;
  uint64_t layout_changes = 0;
  uint64_t fields_dropped = 0;  ///< source fields with no target match
  uint64_t fields_nulled = 0;   ///< target fields with no source match
  uint64_t commit_replays = 0;  ///< CommitBatch re-sends answered from the journal
  uint64_t commit_retries = 0;  ///< pipeline re-runs on a retained sealed batch
  uint64_t ledger_evictions = 0;
  uint64_t staging_rows_pruned = 0;  ///< applied rows deleted from the staging table
  /// Sessions negotiated down from binary to csv staging because a layout
  /// drift changed a name-matched field's staging type (see
  /// DataConverter::CreateRemapped). At most 1 per stream: the fallback is
  /// sticky for the session.
  uint64_t format_fallbacks = 0;
  /// Rows the data-quality gate diverted to the HQ_QRTN_<job> table.
  uint64_t rows_quarantined = 0;
  /// Micro-batches rejected by abort-over-threshold (quarantine shipped,
  /// staging rows dropped, stream kept healthy).
  uint64_t batches_rejected = 0;
};

class StreamJob {
 public:
  /// Validates the context, parses the stream's DML, and creates the
  /// CDW-side state (staging + error tables). `job_id` must be unique on
  /// the node.
  static common::Result<std::shared_ptr<StreamJob>> Create(const std::string& job_id,
                                                           const legacy::BeginStreamBody& begin,
                                                           core::JobContext ctx);

  /// Accepts one data chunk into the open micro-batch. Conversion and the
  /// staging-file append run synchronously on the calling session thread:
  /// a micro-batch is small by construction and strict arrival order is
  /// what makes drift windows deterministic. Refused while a failed commit
  /// is pending retry — the rows of that batch are already sealed, and
  /// accepting re-sent copies of them would stage duplicates.
  common::Status SubmitChunk(const legacy::DataChunkBody& chunk);

  /// Switches the session's source layout (schema drift). Subsequent chunks
  /// are decoded in `layout` and remapped into the stream's original target
  /// layout by field name. No-op when `layout` equals the current one.
  common::Status ChangeLayout(const types::Schema& layout);

  /// Commits the open micro-batch: seals the staging files, uploads them
  /// under the batch's own prefix, COPYs into the staging table, records
  /// this batch's data errors, and applies the stream DML over exactly the
  /// batch's HQ_ROWNUM range. Replaying an already-committed `batch_seq`
  /// returns the journaled result. `watermark_micros` must advance. On
  /// failure the sealed batch is retained: re-sending the same CommitBatch
  /// re-runs the pipeline on the same rows (exactly-once either way), unless
  /// the failure poisoned the stream (DML apply / staging finalize), in
  /// which case this and every later call returns the poison status.
  common::Result<legacy::BatchCommittedBody> CommitBatch(uint64_t batch_seq,
                                                         uint64_t watermark_micros);

  /// Ends the stream after validating client totals; fails if uncommitted
  /// rows remain. Drops the staging table and its ledger, and reports the
  /// cumulative result of every committed batch.
  common::Result<legacy::JobReportBody> Finish(uint64_t total_chunks, uint64_t total_rows);

  const std::string& job_id() const { return job_id_; }
  StreamStats stats() const HQ_EXCLUDES(mu_);
  /// Cumulative data-quality outcome across every batch so far
  /// (enabled=false when the gate is off). Serializes with in-flight calls.
  core::QualityJobReport quality_report() HQ_EXCLUDES(mu_);
  /// Quarantine table name ("" when the gate is off); outlives the stream.
  const std::string& quarantine_table() const { return tail_->quarantine_table(); }
  std::shared_ptr<obs::Trace> trace() const { return tail_->trace(); }

 private:
  StreamJob(std::string job_id, std::unique_ptr<core::CommitTail> tail, sql::StatementPtr dml);

  /// Serializes SubmitChunk/ChangeLayout/CommitBatch/Finish across sessions
  /// without holding mu_ (rank kJob) through CDW (rank kCdw) or store calls
  /// — the lock hierarchy is descending-only, so commit IO must run
  /// lock-free. Busy is a turn token, not a critical section.
  void AcquireBusy() HQ_EXCLUDES(mu_);
  void ReleaseBusy() HQ_EXCLUDES(mu_);
  /// RAII for the busy token.
  struct BusyToken {
    explicit BusyToken(StreamJob* job) : job_(job) { job_->AcquireBusy(); }
    ~BusyToken() { job_->ReleaseBusy(); }
    BusyToken(const BusyToken&) = delete;
    BusyToken& operator=(const BusyToken&) = delete;
    StreamJob* job_;
  };

  /// Moves the open batch into sealed_ and finalizes its staging files. On
  /// failure the caller must poison the stream: the writer's finalize path
  /// is not re-runnable, so the batch content is forfeit.
  common::Status SealOpenBatch(uint64_t batch_seq);
  /// The commit pipeline body over *sealed_; runs with the busy token held,
  /// mu_ free. Retires sealed_ (and advances the committed watermark / row
  /// high) only after every stage has succeeded.
  common::Result<legacy::BatchCommittedBody> CommitSealed(uint64_t watermark_micros);
  /// Marks the stream permanently failed and ends the job; every later call
  /// returns this.
  void Poison(const common::Status& cause);

  std::string job_id_;
  std::unique_ptr<core::CommitTail> tail_;  ///< converter swapped on drift
  sql::StatementPtr dml_;
  /// Effective staging format for NEW staging files. Starts as the node's
  /// configured format; negotiated down to kCsv (permanently, for this
  /// session) when a type-changing drift makes binary staging impossible.
  /// Already-written files keep their format — each staged object is
  /// single-format, so a batch cut across the fallback COPYs with per-object
  /// sniffing and its ledger keys stay format-tagged.
  cdw::StagingFormat staging_format_ = cdw::StagingFormat::kCsv;

  /// Stream-only instruments (the shared ones live in the tail).
  struct Instruments {
    obs::Counter* batches_committed = nullptr;
    obs::Counter* rows_committed = nullptr;
    obs::Counter* remap_total = nullptr;
    obs::Counter* fields_dropped = nullptr;
    obs::Counter* fields_nulled = nullptr;
    obs::Counter* commit_replays = nullptr;
    obs::Counter* format_fallbacks = nullptr;
    obs::Histogram* batch_latency = nullptr;
    obs::Gauge* watermark_lag = nullptr;
    obs::Counter* batches_rejected = nullptr;
  } m_;

  mutable common::Mutex mu_{common::LockRank::kJob, "stream_job"};
  common::CondVar busy_cv_;
  bool busy_ HQ_GUARDED_BY(mu_) = false;

  // --- Session-serialized state (written with the busy token held; counters
  // --- mirrored under mu_ where stats() reads them). ---
  uint64_t chunk_counter_ HQ_GUARDED_BY(mu_) = 0;
  uint64_t row_counter_ HQ_GUARDED_BY(mu_) = 0;
  StreamStats stats_ HQ_GUARDED_BY(mu_);

  /// Open micro-batch and its staging lane (busy-serialized; no concurrent
  /// readers). The lane is absent until the batch's first chunk.
  core::SealedBatch open_;
  std::optional<core::StagingLane> open_lane_;
  /// Global row number of the last row belonging to a committed batch.
  uint64_t committed_row_high_ = 0;
  /// A micro-batch sealed for commit. Survives a failed commit attempt so a
  /// retried CommitBatch re-runs the tail on the same rows.
  std::optional<core::SealedBatch> sealed_;  ///< pending commit (busy-serialized)

  uint64_t last_watermark_ = 0;
  /// Commit journal: batch_seq -> recorded reply, for client replays. Only
  /// the latest entry is reachable by a correct client; the full map is kept
  /// because it is tiny (one small struct per batch).
  std::map<uint64_t, legacy::BatchCommittedBody> committed_batches_ HQ_GUARDED_BY(mu_);
  /// Committed batch prefixes whose ledger entries are still retained.
  std::deque<std::string> ledgered_prefixes_;

  /// Cumulative quality aggregates across committed batches.
  core::QualityTotals quality_committed_ HQ_GUARDED_BY(mu_);

  /// Cumulative DML results across batches (for the final JobReport).
  core::DmlApplyResult dml_totals_ HQ_GUARDED_BY(mu_);
  uint64_t data_errors_recorded_ HQ_GUARDED_BY(mu_) = 0;
  bool finished_ HQ_GUARDED_BY(mu_) = false;
  /// Non-OK once an unrecoverable commit failure has been observed.
  common::Status poison_ HQ_GUARDED_BY(mu_);
};

}  // namespace hyperq::stream

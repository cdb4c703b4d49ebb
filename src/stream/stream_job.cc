#include "stream/stream_job.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "hyperq/conversion_plan.h"
#include "sql/parser.h"

namespace hyperq::stream {

using common::Result;
using common::Status;

namespace {

/// Zero-padded batch staging prefix ("batch_00000001"): lexicographic key
/// order in the COPY ledger is commit order, which is what makes both
/// eviction paths FIFO.
std::string BatchPrefix(uint64_t batch_seq) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "batch_%08llu", static_cast<unsigned long long>(batch_seq));
  return std::string(buf);
}

}  // namespace

Result<std::shared_ptr<StreamJob>> StreamJob::Create(const std::string& job_id,
                                                     const legacy::BeginStreamBody& begin,
                                                     core::JobContext ctx) {
  if (begin.dml_sql.empty()) {
    return Status::Invalid("stream job requires a DML statement (applied per micro-batch)");
  }
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr dml, sql::ParseStatement(begin.dml_sql));
  // One staging table accumulates every micro-batch: the globally monotone
  // HQ_ROWNUM is what lets per-batch DML ranges compose into exactly the
  // batch-equivalent apply.
  HQ_ASSIGN_OR_RETURN(std::unique_ptr<core::CommitTail> tail,
                      core::CommitTail::Create(core::kStreamKind, job_id,
                                               core::LoadTarget::From(begin), std::move(ctx)));
  return std::shared_ptr<StreamJob>(new StreamJob(job_id, std::move(tail), std::move(dml)));
}

StreamJob::StreamJob(std::string job_id, std::unique_ptr<core::CommitTail> tail,
                     sql::StatementPtr dml)
    : job_id_(std::move(job_id)),
      tail_(std::move(tail)),
      dml_(std::move(dml)),
      staging_format_(tail_->ctx().options.staging_format) {
  obs::MetricsRegistry* r = tail_->ctx().metrics;
  if (r == nullptr) return;
  m_.batches_committed = r->GetCounter("hyperq_stream_batches_committed_total");
  m_.rows_committed = r->GetCounter("hyperq_stream_rows_committed_total");
  m_.remap_total = r->GetCounter("hyperq_stream_remap_total");
  m_.fields_dropped = r->GetCounter("hyperq_stream_fields_dropped_total");
  m_.fields_nulled = r->GetCounter("hyperq_stream_fields_nulled_total");
  m_.commit_replays = r->GetCounter("hyperq_stream_commit_replays_total");
  m_.format_fallbacks = r->GetCounter("hyperq_stream_format_fallback_total");
  m_.batch_latency = r->GetHistogram("hyperq_stream_batch_latency_seconds");
  m_.watermark_lag = r->GetGauge("hyperq_stream_watermark_lag_seconds");
  if (!tail_->quarantine_table().empty()) {
    m_.batches_rejected = r->GetCounter("hyperq_stream_batches_rejected_total");
  }
}

void StreamJob::AcquireBusy() {
  common::MutexLock lock(&mu_);
  while (busy_) busy_cv_.Wait(lock);
  busy_ = true;
}

void StreamJob::ReleaseBusy() {
  common::MutexLock lock(&mu_);
  busy_ = false;
  busy_cv_.NotifyAll();
}

Status StreamJob::SubmitChunk(const legacy::DataChunkBody& chunk) {
  BusyToken busy(this);
  // A failed commit keeps its sealed batch for retry; accepting re-sent
  // copies of those rows here would stage them twice.
  if (sealed_.has_value()) {
    return Status::ProtocolError(
        "stream " + job_id_ + ": commit of batch " + std::to_string(sealed_->batch_seq) +
        " failed and is pending retry; re-send CommitBatch, not chunks");
  }
  uint64_t order;
  uint64_t first_row;
  uint64_t batch_seq;
  {
    common::MutexLock lock(&mu_);
    if (finished_) return Status::Invalid("stream " + job_id_ + " already ended");
    HQ_RETURN_NOT_OK(poison_);
    order = chunk_counter_++;
    first_row = row_counter_ + 1;
    row_counter_ += chunk.row_count;
    ++stats_.chunks;
    stats_.rows_received += chunk.row_count;
    batch_seq = stats_.batches_committed + 1;
  }
  tail_->CountReceived(chunk);
  if (open_.chunks == 0) open_.open_time = std::chrono::steady_clock::now();
  if (!open_lane_.has_value()) {
    open_lane_.emplace();
    open_lane_->prefix = BatchPrefix(batch_seq);
    open_lane_->format = staging_format_;
  }

  // Synchronous conversion on the session thread: micro-batches are small by
  // construction and strict arrival order keeps drift windows deterministic
  // (every chunk is decoded by exactly the layout that was current when it
  // was sent).
  core::ConversionInput input;
  input.order_index = order;
  input.first_row_number = first_row;
  input.chunk = chunk;
  HQ_ASSIGN_OR_RETURN(core::ConvertedChunk converted, tail_->Convert(input));
  const size_t errors_before = open_.errors.size();
  const uint64_t abandoned_before = open_.chunks_abandoned;
  const uint64_t quarantined_before = open_.quality.rows_quarantined;
  HQ_RETURN_NOT_OK(tail_->StageChunk(std::move(converted), &*open_lane_, &open_));
  common::MutexLock lock(&mu_);
  stats_.data_errors += open_.errors.size() - errors_before;
  stats_.chunks_abandoned += open_.chunks_abandoned - abandoned_before;
  stats_.rows_quarantined += open_.quality.rows_quarantined - quarantined_before;
  return Status::OK();
}

Status StreamJob::ChangeLayout(const types::Schema& layout) {
  BusyToken busy(this);
  {
    common::MutexLock lock(&mu_);
    if (finished_) return Status::Invalid("stream " + job_id_ + " already ended");
    HQ_RETURN_NOT_OK(poison_);
  }
  if (layout == tail_->converter().layout()) return Status::OK();  // no drift

  // Drift-swapped converters recompile the same quality constraints: ids are
  // spec-ordered, so the id-keyed aggregates keep composing across windows.
  const core::LoadTarget& target = tail_->target();
  const core::TableQualitySpec* quality = tail_->table_quality();
  Result<core::DataConverter> next =
      layout == target.layout
          ? core::DataConverter::Create(layout, target.format, target.delimiter,
                                        cdw::CsvOptions{}, staging_format_, quality)
          : core::DataConverter::CreateRemapped(layout, target.layout, target.format,
                                                target.delimiter, cdw::CsvOptions{},
                                                staging_format_, quality);
  if (!next.ok() && staging_format_ == cdw::StagingFormat::kBinary && layout != target.layout) {
    // Format negotiation: type-changing drift cannot be encoded into the
    // staging table's typed binary columns, so the session falls back to csv
    // staging (permanently). The open batch's files are finalized first so
    // every staged object stays single-format, and the batch continues under
    // its own csv file series.
    HQ_LOG_WARN() << "stream " << job_id_ << ": " << next.status().message()
                  << " — falling back to csv staging for this session";
    if (open_lane_.has_value()) {
      HQ_RETURN_NOT_OK(tail_->FinishLane(&*open_lane_, &open_));
      std::string prefix = open_lane_->prefix + "_csv";
      open_lane_.emplace();
      open_lane_->prefix = std::move(prefix);
      open_lane_->format = cdw::StagingFormat::kCsv;
    }
    staging_format_ = cdw::StagingFormat::kCsv;
    if (m_.format_fallbacks != nullptr) m_.format_fallbacks->Increment();
    {
      common::MutexLock lock(&mu_);
      ++stats_.format_fallbacks;
    }
    next = core::DataConverter::CreateRemapped(layout, target.layout, target.format,
                                               target.delimiter, cdw::CsvOptions{},
                                               cdw::StagingFormat::kCsv, quality);
  }
  HQ_RETURN_NOT_OK(next.status());
  tail_->set_converter(std::move(next).ValueOrDie());

  const core::ConversionPlan& plan = tail_->converter().plan();
  const size_t dropped = plan.dropped_source_fields();
  const size_t nulled = plan.nulled_target_fields();
  if (plan.remapped()) {
    HQ_LOG_WARN() << "stream " << job_id_ << ": layout drift to " << layout.ToString()
                  << " — remapping by name (" << dropped << " source field(s) dropped, "
                  << nulled << " target field(s) nulled)";
    if (m_.remap_total != nullptr) {
      m_.remap_total->Increment();
      m_.fields_dropped->Increment(dropped);
      m_.fields_nulled->Increment(nulled);
    }
  }
  common::MutexLock lock(&mu_);
  ++stats_.layout_changes;
  stats_.fields_dropped += dropped;
  stats_.fields_nulled += nulled;
  return Status::OK();
}

Result<legacy::BatchCommittedBody> StreamJob::CommitBatch(uint64_t batch_seq,
                                                          uint64_t watermark_micros) {
  BusyToken busy(this);
  {
    common::MutexLock lock(&mu_);
    if (finished_) return Status::Invalid("stream " + job_id_ + " already ended");
    HQ_RETURN_NOT_OK(poison_);
    // Client replay of a committed batch (lost BatchCommitted reply): the
    // journal answers; nothing downstream runs again.
    auto it = committed_batches_.find(batch_seq);
    if (it != committed_batches_.end()) {
      ++stats_.commit_replays;
      if (m_.commit_replays != nullptr) m_.commit_replays->Increment();
      return it->second;
    }
    const uint64_t expected = stats_.batches_committed + 1;
    if (batch_seq != expected) {
      return Status::ProtocolError("commit for batch " + std::to_string(batch_seq) +
                                   ", expected " + std::to_string(expected));
    }
  }
  if (watermark_micros <= last_watermark_) {
    return Status::ProtocolError(
        "micro-batch watermark must advance: " + std::to_string(watermark_micros) +
        " <= " + std::to_string(last_watermark_));
  }
  if (!sealed_.has_value()) {
    Status sealed = SealOpenBatch(batch_seq);
    if (!sealed.ok()) {
      // Finalize is not re-runnable; the batch content is forfeit, so fail
      // every later call loudly rather than ever ack an empty batch.
      Poison(sealed);
      return sealed;
    }
  } else {
    // Retained from a failed attempt: re-run the pipeline on the same rows.
    if (sealed_->batch_seq != batch_seq) {
      return Status::Internal("sealed batch " + std::to_string(sealed_->batch_seq) +
                              " does not match commit for batch " + std::to_string(batch_seq));
    }
    common::MutexLock lock(&mu_);
    ++stats_.commit_retries;
  }
  return CommitSealed(watermark_micros);
}

Status StreamJob::SealOpenBatch(uint64_t batch_seq) {
  core::SealedBatch sealed = std::exchange(open_, core::SealedBatch{});
  std::optional<core::StagingLane> lane = std::exchange(open_lane_, std::nullopt);
  sealed.batch_seq = batch_seq;
  if (sealed.chunks == 0) sealed.open_time = std::chrono::steady_clock::now();
  sealed.first_row = committed_row_high_ + 1;
  {
    common::MutexLock lock(&mu_);
    sealed.last_row = row_counter_;
  }
  if (lane.has_value()) HQ_RETURN_NOT_OK(tail_->FinishLane(&*lane, &sealed));
  sealed_ = std::move(sealed);
  return Status::OK();
}

void StreamJob::Poison(const Status& cause) {
  Status poison = Status::Internal("stream " + job_id_ +
                                   " poisoned by unrecoverable commit failure: " +
                                   cause.message());
  HQ_LOG_ERROR() << poison.message();
  tail_->End(poison);
  common::MutexLock lock(&mu_);
  poison_ = std::move(poison);
}

Result<legacy::BatchCommittedBody> StreamJob::CommitSealed(uint64_t watermark_micros) {
  // Everything up to the DML apply is idempotent across commit attempts:
  // uploads re-put identical bytes to the same keys, COPY dedups through the
  // per-table ledger, and ET inserts resume at errors_recorded. The open
  // batch stays untouched, so a failed attempt can't corrupt the next
  // batch's accounting — and the sealed batch survives for the retry.
  core::SealedBatch& sealed = *sealed_;
  const uint64_t batch_seq = sealed.batch_seq;
  const core::JobContext& ctx = tail_->ctx();

  // Per-micro-batch degradation policy: a batch whose violation rate exceeds
  // the per-batch watermark is rejected — its quarantine rows still ship (the
  // operator's evidence) but its staging rows never reach the target table,
  // so a drifting upstream poisons only the offending batch, not the stream.
  // The decision is a pure function of sealed state: every commit attempt of
  // this batch decides the same way.
  const double batch_rate = sealed.quality.violation_rate();
  const bool rejected = !tail_->quarantine_table().empty() &&
                        ctx.options.quality.abort_over_threshold &&
                        batch_rate > ctx.options.quality.batch_max_violation_rate;

  // The batch stages under its own zero-padded prefix: the scope of its COPY
  // (so the ledger's cumulative count is exactly this batch) and the unit of
  // ledger eviction.
  const std::string batch_dir = BatchPrefix(batch_seq) + "/";
  HQ_RETURN_NOT_OK(tail_->Stage(sealed, batch_dir, /*stage_rows=*/!rejected));

  // Sequential inclusive ranges over the monotone HQ_ROWNUM partition the
  // stream, so the union of per-batch applies equals one whole-table apply
  // (the batch-equivalence invariant the drift e2e checks).
  Result<core::DmlApplyResult> applied = tail_->Apply(rejected ? nullptr : dml_.get(), &sealed);
  if (!applied.ok()) {
    // A failed ET insert resumes on the retried commit. The DML apply is the
    // one non-idempotent stage: partial effects can't be re-run safely, so
    // the stream dies loudly instead of risking double-apply.
    if (sealed.errors_recorded == sealed.errors.size()) Poison(applied.status());
    return applied.status();
  }
  const core::DmlApplyResult dml = *applied;

  // The batch is durably applied; from here on the commit must succeed.
  // Retire the batch's files, advance the committed row high-water mark, and
  // drop ledger entries that have fallen out of the replay window so
  // arbitrarily long streams keep a bounded ledger.
  sealed.RemoveLocalFiles();
  committed_row_high_ = sealed.last_row;

  // Prune the applied rows from the accumulating staging table. Every later
  // batch addresses a strictly higher HQ_ROWNUM range and a replayed commit
  // is answered from the journal without re-reading staging, so rows at or
  // below the new high-water mark are dead weight — left in place they make
  // each batch's COPY count check and DML range scan cost O(stream) instead
  // of O(batch). Best-effort: a failed prune costs latency, not rows.
  uint64_t pruned = 0;
  if (!rejected && sealed.last_row >= sealed.first_row) {
    Result<cdw::ExecResult> del =
        ctx.cdw->ExecuteSql("DELETE FROM " + tail_->staging_table() +
                            " WHERE HQ_ROWNUM <= " + std::to_string(sealed.last_row));
    if (del.ok()) {
      pruned = del.ValueOrDie().rows_deleted;
    } else {
      HQ_LOG_WARN() << "stream " << job_id_ << ": staging prune failed (non-fatal): "
                    << del.status().message();
    }
  }

  uint64_t evicted = 0;
  if (!rejected) {
    ledgered_prefixes_.push_back(tail_->remote_prefix() + batch_dir);
    const size_t keep = std::max<size_t>(1, ctx.options.stream_ledger_keep_batches);
    while (ledgered_prefixes_.size() > keep) {
      ctx.cdw->ForgetCopiesWithPrefix(tail_->staging_table(), ledgered_prefixes_.front());
      ledgered_prefixes_.pop_front();
      ++evicted;
    }
  }
  if (sealed.qrtn_rows_staged != 0) {
    // Replays of this commit are answered from the journal without re-running
    // COPY, so the quarantine ledger entries are dead weight once durable.
    ctx.cdw->ForgetCopiesWithPrefix(tail_->quarantine_table(),
                                    tail_->quarantine_prefix() + batch_dir);
  }

  last_watermark_ = watermark_micros;
  const auto now_wall = std::chrono::system_clock::now().time_since_epoch();
  const int64_t wall_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(now_wall).count();
  const int64_t lag_micros = wall_micros - static_cast<int64_t>(watermark_micros);
  const double batch_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sealed.open_time)
          .count();

  legacy::BatchCommittedBody reply;
  reply.batch_seq = batch_seq;
  reply.watermark_micros = watermark_micros;
  reply.rows_in_batch = dml.rows_inserted + dml.rows_updated + dml.rows_deleted;
  {
    common::MutexLock lock(&mu_);
    dml_totals_.rows_inserted += dml.rows_inserted;
    dml_totals_.rows_updated += dml.rows_updated;
    dml_totals_.rows_deleted += dml.rows_deleted;
    dml_totals_.et_errors += dml.et_errors;
    dml_totals_.uv_errors += dml.uv_errors;
    dml_totals_.range_errors += dml.range_errors;
    dml_totals_.statements_issued += dml.statements_issued;
    data_errors_recorded_ += sealed.errors.size();
    // batches_committed is the commit-protocol sequence number, so a rejected
    // batch advances it too (the journal is keyed by batch_seq either way).
    ++stats_.batches_committed;
    if (rejected) ++stats_.batches_rejected;
    if (!rejected) stats_.rows_committed += sealed.rows_staged;
    stats_.ledger_evictions += evicted;
    stats_.staging_rows_pruned += pruned;
    quality_committed_.Add(sealed.quality);
    reply.rows_total =
        dml_totals_.rows_inserted + dml_totals_.rows_updated + dml_totals_.rows_deleted;
    reply.et_errors = dml_totals_.et_errors + data_errors_recorded_;
    reply.message = rejected ? "batch " + std::to_string(batch_seq) +
                                   " rejected by quality gate (" +
                                   std::to_string(sealed.quality.rows_quarantined) + "/" +
                                   std::to_string(sealed.quality.rows_checked) +
                                   " rows quarantined to " + tail_->quarantine_table() + ")"
                             : "batch " + std::to_string(batch_seq) + " committed";
    committed_batches_[batch_seq] = reply;
  }
  if (m_.batches_committed != nullptr) {
    if (rejected) {
      m_.batches_rejected->Increment();
    } else {
      m_.batches_committed->Increment();
      m_.rows_committed->Increment(sealed.rows_staged);
    }
    m_.batch_latency->Observe(batch_seconds);
    m_.watermark_lag->Set(std::max<int64_t>(0, lag_micros / 1000000));
  }
  sealed_.reset();
  return reply;
}

Result<legacy::JobReportBody> StreamJob::Finish(uint64_t total_chunks, uint64_t total_rows) {
  BusyToken busy(this);
  {
    common::MutexLock lock(&mu_);
    if (finished_) return Status::Invalid("stream " + job_id_ + " already ended");
    HQ_RETURN_NOT_OK(poison_);
    if (total_chunks != 0 && total_chunks != chunk_counter_) {
      return Status::ProtocolError("client reported " + std::to_string(total_chunks) +
                                   " chunks, received " + std::to_string(chunk_counter_));
    }
    if (total_rows != 0 && total_rows != row_counter_) {
      return Status::ProtocolError("client reported " + std::to_string(total_rows) +
                                   " rows, received " + std::to_string(row_counter_));
    }
  }
  if (open_.chunks != 0 || open_lane_.has_value() || sealed_.has_value()) {
    return Status::ProtocolError(
        "stream ended with an uncommitted micro-batch; send CommitBatch before EndStream");
  }

  // Stream-scoped scratch state goes with the stream.
  cdw::CdwServer* cdw = tail_->ctx().cdw;
  HQ_RETURN_NOT_OK(cdw->catalog()->DropTable(tail_->staging_table(), /*if_exists=*/true));
  cdw->ForgetCopies(tail_->staging_table());

  legacy::JobReportBody report;
  {
    common::MutexLock lock(&mu_);
    finished_ = true;
    report.rows_inserted = dml_totals_.rows_inserted;
    report.rows_updated = dml_totals_.rows_updated;
    report.rows_deleted = dml_totals_.rows_deleted;
    report.et_errors = dml_totals_.et_errors + data_errors_recorded_;
    report.uv_errors = dml_totals_.uv_errors;
    report.message = "stream " + job_id_ + " complete (" +
                     std::to_string(stats_.batches_committed) + " micro-batches)";
  }
  tail_->End(Status::OK());
  return report;
}

StreamStats StreamJob::stats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

core::QualityJobReport StreamJob::quality_report() {
  // The busy token serializes with in-flight calls, making the open-batch
  // and sealed aggregates safe to read here. All-time view: committed
  // batches + the sealed batch (if a commit is pending retry) + the open
  // batch, to match stats_.rows_quarantined which counts at submit time.
  BusyToken busy(this);
  core::QualityTotals totals = open_.quality;
  if (sealed_.has_value()) totals.Add(sealed_->quality);
  {
    common::MutexLock lock(&mu_);
    totals.Add(quality_committed_);
  }
  return tail_->QualityReport(totals);
}

}  // namespace hyperq::stream

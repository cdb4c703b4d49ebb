#include "hyperq/commit_tail.h"

#include <cctype>
#include <cstdio>

#include "cloudstore/bulk_loader.h"
#include "common/fault.h"
#include "legacy/errors.h"

namespace hyperq::core {

using common::Result;
using common::Slice;
using common::Status;

namespace {

std::string SanitizeId(const std::string& id) {
  std::string out;
  for (char c : id) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

Status RecreateTable(cdw::CdwServer* cdw, const std::string& name, const types::Schema& schema) {
  HQ_RETURN_NOT_OK(cdw->catalog()->DropTable(name, /*if_exists=*/true));
  return cdw->catalog()->CreateTable(name, schema).status();
}

void AddInto(std::vector<uint64_t>* into, const std::vector<uint64_t>& from) {
  if (into->size() < from.size()) into->resize(from.size());
  for (size_t i = 0; i < from.size(); ++i) (*into)[i] += from[i];
}

uint8_t FormatBit(cdw::StagingFormat format) {
  return static_cast<uint8_t>(1u << static_cast<unsigned>(format));
}

/// COPY is told what was staged, so a malformed object fails loudly instead
/// of being misparsed under sniffing. Only a stream batch cut across a CSV
/// fallback holds both formats; there COPY sniffs per object.
cdw::CopyFormat CopyFormatOf(uint8_t file_formats) {
  if (file_formats == FormatBit(cdw::StagingFormat::kBinary)) return cdw::CopyFormat::kBinary;
  if (file_formats == FormatBit(cdw::StagingFormat::kCsv)) return cdw::CopyFormat::kCsv;
  return cdw::CopyFormat::kAuto;
}

}  // namespace

void QualityTotals::Add(const QualityTotals& other) {
  rows_checked += other.rows_checked;
  rows_quarantined += other.rows_quarantined;
  AddInto(&violations_by_id, other.violations_by_id);
  AddInto(&nulls_by_id, other.nulls_by_id);
}

double QualityTotals::violation_rate() const {
  return rows_checked == 0 ? 0.0
                           : static_cast<double>(rows_quarantined) /
                                 static_cast<double>(rows_checked);
}

void SealedBatch::Merge(SealedBatch&& other) {
  for (auto& f : other.files) files.push_back(std::move(f));
  file_formats |= other.file_formats;
  for (auto& e : other.errors) errors.push_back(std::move(e));
  chunks += other.chunks;
  rows_staged += other.rows_staged;
  bytes_staged += other.bytes_staged;
  chunks_abandoned += other.chunks_abandoned;
  for (auto& f : other.qrtn_files) qrtn_files.push_back(std::move(f));
  qrtn_rows_staged += other.qrtn_rows_staged;
  quality.Add(other.quality);
}

void SealedBatch::RemoveLocalFiles() const {
  for (const auto& f : files) std::remove(f.path.c_str());
  for (const auto& f : qrtn_files) std::remove(f.path.c_str());
}

Result<std::unique_ptr<CommitTail>> CommitTail::Create(const JobKind& kind,
                                                       const std::string& job_id,
                                                       LoadTarget target, JobContext ctx) {
  if (ctx.cdw == nullptr || ctx.store == nullptr) {
    return Status::Invalid("incomplete job context");
  }
  // The target table must already exist in the CDW.
  HQ_RETURN_NOT_OK(ctx.cdw->catalog()->GetTable(target.target_table).status());

  // Config specs are part of the job contract: an unparseable fault_spec or
  // quality spec fails the Begin verb loudly (ProtocolError) instead of
  // silently degrading to "no injection" / "no gate".
  if (!ctx.options.fault_spec.empty()) {
    uint64_t seed = 0;
    std::vector<std::pair<int, common::FaultRule>> rules;
    Status parsed = common::ParseFaultSpec(ctx.options.fault_spec, &seed, &rules);
    if (!parsed.ok()) {
      return Status::ProtocolError("invalid fault_spec: " + parsed.message());
    }
  }
  std::optional<TableQualitySpec> table_quality;
  if (!ctx.options.quality.spec.empty()) {
    auto parsed = ParseQualitySpec(ctx.options.quality.spec);
    if (!parsed.ok()) {
      return Status::ProtocolError("invalid quality spec: " + parsed.status().message());
    }
    const TableQualitySpec* table = FindTableQuality(*parsed, target.target_table);
    if (table != nullptr) table_quality = *table;
  }

  HQ_ASSIGN_OR_RETURN(types::Schema staging_schema, MakeStagingSchema(target.layout));
  HQ_ASSIGN_OR_RETURN(
      DataConverter converter,
      DataConverter::Create(target.layout, target.format, target.delimiter, cdw::CsvOptions{},
                            ctx.options.staging_format,
                            table_quality.has_value() ? &*table_quality : nullptr));

  // Per-job error-handling overrides from the client script (.set commands).
  if (target.max_errors != 0) ctx.options.max_errors = target.max_errors;
  if (target.max_retries != 0) ctx.options.max_retries = target.max_retries;

  std::unique_ptr<CommitTail> tail(new CommitTail(kind, job_id, std::move(target),
                                                  std::move(ctx), std::move(converter),
                                                  std::move(table_quality)));

  // CDW-side state: the staging table plus fresh error tables. A recreated
  // staging table must not inherit a prior job's COPY-idempotence ledger.
  // The quarantine table is deliberately never dropped by the job: it is the
  // operator's record of what the gate rejected and why.
  cdw::CdwServer* cdw = tail->ctx_.cdw;
  const LoadTarget& t = tail->target_;
  HQ_RETURN_NOT_OK(RecreateTable(cdw, tail->staging_table_, staging_schema));
  cdw->ForgetCopies(tail->staging_table_);
  HQ_RETURN_NOT_OK(RecreateTable(cdw, t.error_table_et, MakeEtErrorSchema()));
  HQ_RETURN_NOT_OK(RecreateTable(cdw, t.error_table_uv, MakeUvErrorSchema(t.layout)));
  if (!tail->qrtn_table_.empty()) {
    HQ_ASSIGN_OR_RETURN(types::Schema qrtn_schema, MakeQuarantineSchema(t.layout));
    HQ_RETURN_NOT_OK(RecreateTable(cdw, tail->qrtn_table_, qrtn_schema));
    cdw->ForgetCopies(tail->qrtn_table_);
  }
  return tail;
}

CommitTail::CommitTail(const JobKind& kind, const std::string& job_id, LoadTarget target,
                       JobContext ctx, DataConverter converter,
                       std::optional<TableQualitySpec> table_quality)
    : target_(std::move(target)),
      ctx_(std::move(ctx)),
      converter_(std::move(converter)),
      table_quality_(std::move(table_quality)) {
  const std::string id = SanitizeId(job_id);
  staging_table_ = kind.staging_table_prefix + id;
  remote_prefix_ = kind.remote_root + id + "/";
  local_dir_ = ctx_.options.local_staging_dir + "/" + id;
  const CompiledQuality* quality = converter_.quality();
  if (quality != nullptr) {
    qrtn_table_ = "HQ_QRTN_" + id;
    qrtn_remote_prefix_ = "quarantine/" + id + "/";
  }
  if (ctx_.tracer != nullptr) trace_ = ctx_.tracer->StartTrace(job_id, kind.root_phase);
  if (ctx_.metrics == nullptr) return;
  obs::MetricsRegistry* r = ctx_.metrics;
  const std::string own = kind.metric_prefix;
  const std::string jobs = kind.jobs_metric;
  m_.chunks = r->GetCounter(own + "chunks_total");
  m_.rows_received = r->GetCounter(own + "rows_received_total");
  m_.bytes_received = r->GetCounter(own + "bytes_received_total");
  m_.data_errors = r->GetCounter(own + "data_errors_total");
  m_.rows_staged = r->GetCounter("hyperq_rows_staged_total");
  m_.csv_reallocs = r->GetCounter("hyperq_convert_csv_realloc_total");
  m_.chunks_abandoned = r->GetCounter("hyperq_chunks_abandoned_total");
  m_.files_uploaded = r->GetCounter("hyperq_files_uploaded_total");
  m_.bytes_uploaded = r->GetCounter("hyperq_bytes_uploaded_total");
  m_.rows_copied = r->GetCounter("hyperq_rows_copied_total");
  m_.jobs_completed = r->GetCounter(jobs + "completed_total");
  m_.jobs_failed = r->GetCounter(jobs + "failed_total");
  m_.convert_seconds = r->GetHistogram("hyperq_convert_seconds");
  m_.write_seconds = r->GetHistogram("hyperq_file_write_seconds");
  m_.compress_seconds = r->GetHistogram("hyperq_compress_seconds");
  m_.upload_seconds = r->GetHistogram("hyperq_upload_seconds");
  m_.apply_seconds = r->GetHistogram("hyperq_dml_apply_seconds");
  m_.jobs_active = r->GetGauge(jobs + "active");
  m_.staging_bytes_per_row = r->GetGauge("hyperq_staging_bytes_per_row");
  if (quality != nullptr) {
    m_.rows_quarantined = r->GetCounter("hyperq_quality_rows_quarantined_total");
    m_.violation_rate_bp = r->GetGauge("hyperq_quality_violation_rate_bp");
    m_.quality_violations.reserve(quality->num_constraints());
    for (size_t id = 0; id < quality->num_constraints(); ++id) {
      const QualityConstraintInfo& info = quality->constraint(id);
      m_.quality_violations.push_back(r->GetCounter(
          "hyperq_quality_violations_total{constraint=\"" + std::to_string(id) + ":" +
          std::string(QualityKindName(info.kind)) + ":" + info.column + "\"}"));
    }
  }
  r->GetCounter(jobs + "started_total")->Increment();
  m_.jobs_active->Add(1);
}

CommitTail::~CommitTail() {
  // A job dropped without ending (node shutdown) still frees its gauge slot.
  if (!ended_.exchange(true) && m_.jobs_active != nullptr) m_.jobs_active->Sub(1);
}

void CommitTail::End(const Status& outcome) {
  if (ended_.exchange(true)) return;
  if (m_.jobs_active != nullptr) {
    m_.jobs_active->Sub(1);
    (outcome.ok() ? m_.jobs_completed : m_.jobs_failed)->Increment();
  }
  if (trace_ != nullptr) trace_->Finish();
}

common::RetryPolicy CommitTail::MakeIoRetry(const char* breaker_endpoint) const {
  common::RetryOptions options = ctx_.options.io_retry;
  options.breaker = common::BreakerFor(breaker_endpoint);
  if (trace_ != nullptr) {
    std::shared_ptr<obs::Trace> trace = trace_;
    options.on_backoff = [trace](std::string_view point, int attempt, uint64_t sleep_micros) {
      auto start = std::chrono::steady_clock::now();
      trace->RecordSpan(obs::Phase::kRetryBackoff,
                        "retry:" + std::string(point) + "#" + std::to_string(attempt), 0, start,
                        start + std::chrono::microseconds(sleep_micros));
    };
  }
  return common::RetryPolicy(std::move(options));
}

void CommitTail::CountReceived(const legacy::DataChunkBody& chunk) const {
  if (m_.chunks == nullptr) return;
  m_.chunks->Increment();
  m_.rows_received->Increment(chunk.row_count);
  m_.bytes_received->Increment(chunk.payload.size());
}

Result<ConvertedChunk> CommitTail::Convert(const ConversionInput& input) const {
  obs::ScopedTimer convert_timer(m_.convert_seconds);
  obs::ScopedSpan convert_span(trace_.get(), obs::Phase::kRowConvert, "convert");
  return converter_.Convert(input, ctx_.buffers);
}

FileWriterOptions CommitTail::WriterOptions(cdw::StagingFormat format) const {
  FileWriterOptions options;
  options.directory = local_dir_;
  options.file_size_threshold = ctx_.options.file_size_threshold;
  options.compress = ctx_.options.compress_staging_files;
  options.file_extension = cdw::StagingFileExtension(format);
  options.compress_seconds = m_.compress_seconds;
  options.trace = trace_;
  options.trace_parent = trace_ == nullptr ? 0 : trace_->root_id();
  return options;
}

Status CommitTail::StageChunk(ConvertedChunk converted, StagingLane* lane,
                              SealedBatch* batch) const {
  ++batch->chunks;
  if (lane->writer == nullptr) {
    lane->writer = std::make_unique<FileWriter>(WriterOptions(lane->format), lane->prefix);
  }
  const size_t files_before = batch->files.size();
  obs::ScopedTimer write_timer(m_.write_seconds);
  obs::ScopedSpan write_span(trace_.get(), obs::Phase::kFileWrite, "write");
  // Transient staging-disk failures (the bulkload.file fault point fires
  // before any bytes land, so a failed attempt leaves no partial write) are
  // retried with backoff.
  Status appended =
      MakeIoRetry("staging_disk").Run("bulkload.file", [&](const common::RetryAttempt&) {
        return lane->writer->Append(converted.csv.AsSlice(), &batch->files);
      });
  write_timer.StopAndObserve();
  write_span.End();
  if (batch->files.size() != files_before) batch->file_formats |= FormatBit(lane->format);
  const size_t staged_bytes = converted.csv.size();
  // The staging bytes are on disk (or abandoned): recycle the buffer either way.
  if (ctx_.buffers != nullptr) ctx_.buffers->Release(std::move(converted.csv.vector()));
  if (!appended.ok() && !common::IsRetryableStatus(appended)) return appended;

  // The conversion errors describe real input rows whether or not the chunk
  // was staged, so they always reach the ET table.
  const size_t errors_before = batch->errors.size();
  for (auto& e : converted.errors) batch->errors.push_back(std::move(e));
  if (!appended.ok()) {
    // Retries exhausted: degrade instead of failing the job. The chunk's rows
    // never reach rows_staged and its abandonment lands in the ET table, so
    // the surviving chunks still commit.
    Abandon(converted.first_row_number, "chunk abandoned after staging retries: ", appended,
            batch);
  } else {
    batch->rows_staged += converted.rows_out;
    batch->bytes_staged += staged_bytes;
    if (m_.rows_staged != nullptr) {
      m_.rows_staged->Increment(converted.rows_out);
      if (converted.csv_reallocs != 0) m_.csv_reallocs->Increment(converted.csv_reallocs);
    }
    HQ_RETURN_NOT_OK(StageQuality(converted, lane, batch));
  }
  if (m_.data_errors != nullptr && batch->errors.size() != errors_before) {
    m_.data_errors->Increment(batch->errors.size() - errors_before);
  }
  return Status::OK();
}

Status CommitTail::StageQuality(const ConvertedChunk& converted, StagingLane* lane,
                                SealedBatch* batch) const {
  const CompiledQuality* cq = converter_.quality();
  if (cq == nullptr) return Status::OK();
  // Merge the chunk's counters id-keyed, so aggregates survive a stream's
  // drift-swapped converters, then persist its quarantine rows through the
  // same disk/retry path.
  const ChunkQuality& q = converted.quality;
  QualityTotals& totals = batch->quality;
  totals.rows_checked += q.rows_checked;
  totals.rows_quarantined += q.rows_quarantined;
  AddInto(&totals.violations_by_id, q.violations_by_id);
  if (totals.nulls_by_id.size() < cq->num_constraints()) {
    totals.nulls_by_id.resize(cq->num_constraints());
  }
  for (const CompiledQuality::NullRateCeiling& nr : cq->null_rate_ceilings()) {
    if (nr.field < q.field_nulls.size()) totals.nulls_by_id[nr.id] += q.field_nulls[nr.field];
  }
  if (!m_.quality_violations.empty()) {
    for (size_t id = 0; id < q.violations_by_id.size(); ++id) {
      if (q.violations_by_id[id] != 0) m_.quality_violations[id]->Increment(q.violations_by_id[id]);
    }
  }
  if (q.rows_quarantined == 0) return Status::OK();
  if (m_.rows_quarantined != nullptr) m_.rows_quarantined->Increment(q.rows_quarantined);
  if (lane->qrtn == nullptr) {
    lane->qrtn = std::make_unique<FileWriter>(WriterOptions(cdw::StagingFormat::kCsv),
                                              lane->prefix + "_qrtn");
  }
  Status appended =
      MakeIoRetry("staging_disk").Run("bulkload.file", [&](const common::RetryAttempt&) {
        return lane->qrtn->Append(converted.qrtn.AsSlice(), &batch->qrtn_files);
      });
  if (appended.ok()) {
    batch->qrtn_rows_staged += q.rows_quarantined;
  } else if (common::IsRetryableStatus(appended)) {
    // The diverted rows are lost but audited in the ET table; the load goes on.
    Abandon(converted.first_row_number, "quarantine rows abandoned after staging retries: ",
            appended, batch);
  } else {
    return appended;
  }
  return Status::OK();
}

void CommitTail::Abandon(uint64_t row, const char* what, const Status& cause,
                         SealedBatch* batch) const {
  RecordError abandoned;
  abandoned.row_number = row;
  abandoned.code = legacy::kErrChunkAbandoned;
  abandoned.message = what + cause.message();
  batch->errors.push_back(std::move(abandoned));
  ++batch->chunks_abandoned;
  if (m_.chunks_abandoned != nullptr) m_.chunks_abandoned->Increment();
}

Status CommitTail::FinishLane(StagingLane* lane, SealedBatch* batch) const {
  if (lane->writer != nullptr) {
    const size_t files_before = batch->files.size();
    HQ_RETURN_NOT_OK(lane->writer->Finish(&batch->files));
    if (batch->files.size() != files_before) batch->file_formats |= FormatBit(lane->format);
    lane->writer.reset();
  }
  if (lane->qrtn != nullptr) {
    HQ_RETURN_NOT_OK(lane->qrtn->Finish(&batch->qrtn_files));
    lane->qrtn.reset();
  }
  return Status::OK();
}

Status CommitTail::Stage(const SealedBatch& batch, const std::string& subdir,
                         bool stage_rows) const {
  const std::string prefix = remote_prefix_ + subdir;
  const std::string qrtn_prefix = qrtn_remote_prefix_ + subdir;

  // Bulk-upload the staging files and the quarantine files, each under its
  // own prefix, in one batched request.
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<std::pair<std::string, Slice>> objects;
  payloads.reserve(batch.files.size() + batch.qrtn_files.size());
  uint64_t bytes_uploaded = 0;
  auto add = [&](const std::vector<FinalizedFile>& local, const std::string& remote) -> Status {
    for (const auto& f : local) {
      HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, cloud::ReadFileBytes(f.path));
      bytes_uploaded += bytes.size();
      payloads.push_back(std::move(bytes));
      const size_t slash = f.path.find_last_of('/');
      objects.emplace_back(remote + f.path.substr(slash == std::string::npos ? 0 : slash + 1),
                           Slice(payloads.back()));
    }
    return Status::OK();
  };
  if (stage_rows) HQ_RETURN_NOT_OK(add(batch.files, prefix));
  HQ_RETURN_NOT_OK(add(batch.qrtn_files, qrtn_prefix));
  if (!objects.empty()) {
    obs::ScopedTimer upload_timer(m_.upload_seconds);
    obs::ScopedSpan upload_span(trace_.get(), obs::Phase::kStorePut, "upload");
    // Resume-aware retry: PutBatch reports the applied prefix on failure, so
    // each attempt re-uploads only the objects not yet known durable
    // (re-putting a lost-ack object is an idempotent overwrite).
    size_t start = 0;
    HQ_RETURN_NOT_OK(
        MakeIoRetry("objstore").Run("objstore.put", [&](const common::RetryAttempt&) {
          std::vector<std::pair<std::string, Slice>> rest(
              objects.begin() + static_cast<long>(start), objects.end());
          size_t applied = 0;
          Status put = ctx_.store->PutBatch(rest, &applied);
          if (!put.ok()) start += applied;
          return put;
        }));
    if (m_.files_uploaded != nullptr) {
      m_.files_uploaded->Increment(objects.size());
      m_.bytes_uploaded->Increment(bytes_uploaded);
    }
  }

  if (stage_rows && !batch.files.empty()) {
    HQ_RETURN_NOT_OK(Copy(staging_table_, prefix, CopyFormatOf(batch.file_formats), "copy",
                          batch.rows_staged));
    if (m_.rows_copied != nullptr) m_.rows_copied->Increment(batch.rows_staged);
  }
  // Quarantine rows are always CSV. This COPY runs before any degradation
  // policy is evaluated, so an aborted job still leaves its diagnostics.
  if (!batch.qrtn_files.empty()) {
    HQ_RETURN_NOT_OK(Copy(qrtn_table_, qrtn_prefix, cdw::CopyFormat::kCsv, "copy_quarantine",
                          batch.qrtn_rows_staged));
  }
  if (m_.staging_bytes_per_row != nullptr && batch.rows_staged != 0) {
    m_.staging_bytes_per_row->Set(static_cast<int64_t>(batch.bytes_staged / batch.rows_staged));
  }
  if (m_.violation_rate_bp != nullptr && batch.quality.rows_checked != 0) {
    m_.violation_rate_bp->Set(static_cast<int64_t>(batch.quality.violation_rate() * 10000));
  }
  return Status::OK();
}

Status CommitTail::Copy(const std::string& table, const std::string& prefix,
                        cdw::CopyFormat format, const char* what,
                        uint64_t expected_rows) const {
  // In-the-cloud COPY. Safe to retry: the CDW keeps a per-table ledger of
  // ingested staging objects, so a re-COPY after a lost ack skips them and
  // returns the cumulative row count of the prefix.
  obs::ScopedSpan copy_span(trace_.get(), obs::Phase::kCdwCopy, what);
  cdw::CopyOptions copy_options;
  copy_options.format = format;
  HQ_ASSIGN_OR_RETURN(uint64_t copied, MakeIoRetry("cdw").RunResult<uint64_t>(
                                           "cdw.copy", [&](const common::RetryAttempt&) {
                                             return ctx_.cdw->CopyInto(table, prefix,
                                                                       copy_options);
                                           }));
  if (copied != expected_rows) {
    return Status::Internal(std::string(what) + " loaded " + std::to_string(copied) +
                            " rows, staged " + std::to_string(expected_rows));
  }
  return Status::OK();
}

Result<DmlApplyResult> CommitTail::Apply(const sql::Statement* dml, SealedBatch* batch) const {
  obs::ScopedTimer apply_timer(m_.apply_seconds);
  obs::ScopedSpan apply_span(trace_.get(), obs::Phase::kDmlApply, "apply");
  // Acquisition-phase data errors go to the ET table first (the legacy
  // tuple-at-a-time semantics: bad input records are excluded and logged).
  // errors_recorded advances per durable insert, so a retry resumes instead
  // of duplicating ET rows.
  common::RetryPolicy exec_retry = MakeIoRetry("cdw");
  for (; batch->errors_recorded < batch->errors.size(); ++batch->errors_recorded) {
    const RecordError& e = batch->errors[batch->errors_recorded];
    std::string sql_text =
        "INSERT INTO " + target_.error_table_et + " VALUES (" + std::to_string(e.code) + ", " +
        (e.field.empty() ? std::string("NULL") : SqlQuote(e.field)) + ", " +
        SqlQuote(e.message + " (input row number: " + std::to_string(e.row_number) + ")") + ")";
    HQ_RETURN_NOT_OK(exec_retry.Run("cdw.exec", [&](const common::RetryAttempt&) {
      return ctx_.cdw->ExecuteSql(sql_text).status();
    }));
  }
  if (dml == nullptr || batch->last_row < batch->first_row) return DmlApplyResult{};
  AdaptiveOptions adaptive;
  adaptive.max_errors = ctx_.options.max_errors;
  adaptive.max_retries = ctx_.options.max_retries;
  adaptive.enforce_uniqueness = ctx_.options.enforce_uniqueness;
  adaptive.io_retry = ctx_.options.io_retry;
  AdaptiveDmlApplier applier(ctx_.cdw, dml, target_.layout, staging_table_, target_.target_table,
                             target_.error_table_et, target_.error_table_uv, adaptive);
  return applier.Apply(batch->first_row, batch->last_row);
}

QualityJobReport CommitTail::QualityReport(const QualityTotals& totals) const {
  const CompiledQuality* cq = converter_.quality();
  if (cq == nullptr) return QualityJobReport{};
  // BuildQualityJobReport takes field-indexed null counts; rebuild them from
  // the id-keyed totals through the current layout.
  std::vector<uint64_t> field_nulls(cq->num_fields(), 0);
  for (const CompiledQuality::NullRateCeiling& nr : cq->null_rate_ceilings()) {
    if (nr.field < field_nulls.size() && nr.id < totals.nulls_by_id.size()) {
      field_nulls[nr.field] = totals.nulls_by_id[nr.id];
    }
  }
  return BuildQualityJobReport(*cq, totals.violations_by_id, field_nulls, totals.rows_checked,
                               totals.rows_quarantined);
}

}  // namespace hyperq::core

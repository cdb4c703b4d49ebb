#include "hyperq/import_job.h"

#include <algorithm>
#include <chrono>

#include "sql/parser.h"

namespace hyperq::core {

using common::Result;
using common::Status;

Result<std::shared_ptr<ImportJob>> ImportJob::Create(const std::string& job_id,
                                                     const legacy::BeginLoadBody& begin,
                                                     JobContext ctx) {
  if (ctx.credits == nullptr || ctx.converter_pool == nullptr || ctx.memory == nullptr) {
    return Status::Invalid("incomplete job context");
  }
  HQ_ASSIGN_OR_RETURN(
      std::unique_ptr<CommitTail> tail,
      CommitTail::Create(kImportKind, job_id, LoadTarget::From(begin), std::move(ctx)));
  auto job = std::shared_ptr<ImportJob>(new ImportJob(job_id, std::move(tail)));
  const size_t writers = std::max<size_t>(1, job->tail_->ctx().options.file_writers);
  for (size_t i = 0; i < writers; ++i) {
    job->writer_threads_.emplace_back([raw = job.get(), i] { raw->WriterLoop(i); });
  }
  return job;
}

ImportJob::ImportJob(std::string job_id, std::unique_ptr<CommitTail> tail)
    : job_id_(std::move(job_id)), tail_(std::move(tail)) {
  if (tail_->ctx().metrics != nullptr) {
    converter_queue_ = tail_->ctx().metrics->GetGauge("hyperq_converter_queue_depth");
  }
}

ImportJob::~ImportJob() {
  // Converter-pool tasks hold `this`; a job dropped mid-load (node shutdown)
  // must outlive them. The pool runs every queued task, so this ends.
  {
    common::MutexLock lock(&mu_);
    while (outstanding_conversions_ != 0) conversions_done_.Wait(lock);
  }
  ordered_chunks_.Close();
  for (auto& t : writer_threads_) {
    if (t.joinable()) t.join();
  }
}

void ImportJob::NoteFatal(const Status& s) {
  common::MutexLock lock(&mu_);
  if (fatal_.ok()) fatal_ = s;
}

Status ImportJob::fatal_status() const {
  common::MutexLock lock(&mu_);
  return fatal_;
}

void ImportJob::Fail(const Status& s) {
  NoteFatal(s);
  tail_->End(s);
}

Status ImportJob::SubmitChunk(const legacy::DataChunkBody& chunk) {
  HQ_RETURN_NOT_OK(fatal_status());
  const JobContext& ctx = tail_->ctx();
  obs::Trace* trace = tail_->trace().get();

  // Back-pressure: block while the node-wide credit pool is exhausted
  // (Figure 4). The ack to the client is sent only after this returns.
  auto wait_start = std::chrono::steady_clock::now();
  Credit credit = ctx.credits->Acquire();
  if (trace != nullptr) {
    auto wait_end = std::chrono::steady_clock::now();
    // Only genuine throttle events are worth a span (the wait histogram in
    // the CreditManager sees every acquisition).
    if (wait_end - wait_start >= std::chrono::milliseconds(1)) {
      trace->RecordSpan(obs::Phase::kCreditWait, "credit_wait", 0, wait_start, wait_end);
    }
  }

  // Reserve in-flight memory for the raw chunk plus the converted output
  // (estimated at parity). Exhaustion is the simulated OOM of Figure 10.
  uint64_t reserve_bytes = static_cast<uint64_t>(chunk.payload.size()) * 2;
  Status mem = ctx.memory->Reserve(reserve_bytes);
  if (!mem.ok()) {
    NoteFatal(mem);
    return mem;
  }

  uint64_t order;
  uint64_t first_row;
  {
    common::MutexLock lock(&mu_);
    order = chunk_counter_++;
    first_row = row_counter_ + 1;
    row_counter_ += chunk.row_count;
    bytes_received_ += chunk.payload.size();
    ++outstanding_conversions_;
  }

  // Move-only state shared into the std::function task.
  struct TaskState {
    legacy::DataChunkBody chunk;
    Credit credit;
    common::MemoryReservation reservation;
  };
  auto state = std::make_shared<TaskState>();
  state->chunk.chunk_seq = chunk.chunk_seq;
  state->chunk.row_count = chunk.row_count;
  if (ctx.buffers != nullptr) {
    // Copy the payload into a pooled buffer so the allocation is recycled
    // once the converter is done with the raw bytes.
    state->chunk.payload = ctx.buffers->Acquire(chunk.payload.size());
    state->chunk.payload.insert(state->chunk.payload.end(), chunk.payload.begin(),
                                chunk.payload.end());
  } else {
    state->chunk.payload = chunk.payload;
  }
  state->credit = std::move(credit);
  state->reservation = common::MemoryReservation(ctx.memory, reserve_bytes);

  tail_->CountReceived(chunk);
  if (converter_queue_ != nullptr) {
    converter_queue_->Set(static_cast<int64_t>(ctx.converter_pool->queued()));
  }

  bool submitted = ctx.converter_pool->Submit([this, state, order, first_row] {
    ConversionInput input;
    input.order_index = order;
    input.first_row_number = first_row;
    input.chunk = std::move(state->chunk);
    auto converted = tail_->Convert(input);
    common::BufferPool* buffers = tail_->ctx().buffers;
    if (buffers != nullptr) buffers->Release(std::move(input.chunk.payload));

    WorkItem item;
    item.credit = std::move(state->credit);
    item.reservation = std::move(state->reservation);
    if (converted.ok()) {
      item.converted = std::move(converted).ValueOrDie();
    } else {
      item.status = converted.status();
    }
    if (!ordered_chunks_.Push(order, std::move(item))) {
      NoteFatal(Status::Cancelled("chunk queue closed before conversion finished"));
    }
    {
      common::MutexLock lock(&mu_);
      --outstanding_conversions_;
      if (outstanding_conversions_ == 0) conversions_done_.NotifyAll();
    }
  });
  if (!submitted) {
    common::MutexLock lock(&mu_);
    --outstanding_conversions_;
    return Status::Cancelled("converter pool is shut down");
  }
  return Status::OK();
}

void ImportJob::WriterLoop(size_t writer_index) {
  // Each writer stages into its own lane and partial batch, lock-free, and
  // merges the partial into the job's batch once the queue is drained.
  StagingLane lane;
  lane.prefix = "part_w" + std::to_string(writer_index);
  lane.format = tail_->ctx().options.staging_format;
  SealedBatch staged;
  for (;;) {
    std::optional<WorkItem> item = ordered_chunks_.PopNext();
    if (!item.has_value()) break;
    if (!item->status.ok()) {
      NoteFatal(item->status);
      continue;  // credit + reservation released by WorkItem destruction
    }
    // Return the credit to the pool just before the disk write (Figure 4).
    item->credit.Return();
    Status s = tail_->StageChunk(std::move(item->converted), &lane, &staged);
    if (!s.ok()) NoteFatal(s);
  }
  Status s = tail_->FinishLane(&lane, &staged);
  if (!s.ok()) NoteFatal(s);
  common::MutexLock lock(&mu_);
  batch_.Merge(std::move(staged));
}

Status ImportJob::FinishAcquisition(uint64_t client_total_chunks, uint64_t client_total_rows) {
  {
    common::MutexLock lock(&mu_);
    if (acquisition_finished_) return fatal_;
    while (outstanding_conversions_ != 0) conversions_done_.Wait(lock);
    acquisition_finished_ = true;
  }
  ordered_chunks_.Close();
  for (auto& t : writer_threads_) {
    if (t.joinable()) t.join();
  }
  Status staged = StageBatch(client_total_chunks, client_total_rows);
  if (!staged.ok()) Fail(staged);
  return staged;
}

Status ImportJob::StageBatch(uint64_t client_total_chunks, uint64_t client_total_rows) {
  SealedBatch batch;
  {
    common::MutexLock lock(&mu_);
    HQ_RETURN_NOT_OK(fatal_);
    if (client_total_chunks != 0 && client_total_chunks != chunk_counter_) {
      return Status::ProtocolError("client reported " + std::to_string(client_total_chunks) +
                                   " chunks, received " + std::to_string(chunk_counter_));
    }
    if (client_total_rows != 0 && client_total_rows != row_counter_) {
      return Status::ProtocolError("client reported " + std::to_string(client_total_rows) +
                                   " rows, received " + std::to_string(row_counter_));
    }
    // The whole import is one sealed batch over rows [1, N].
    batch = std::move(batch_);
    batch.first_row = 1;
    batch.last_row = row_counter_;
  }
  // Writers merged their lanes in exit order; ET rows go in input order.
  std::stable_sort(batch.errors.begin(), batch.errors.end(),
                   [](const RecordError& a, const RecordError& b) {
                     return a.row_number < b.row_number;
                   });
  Status staged = tail_->Stage(batch, /*subdir=*/"", /*stage_rows=*/true);
  // The local staging files have served their purpose either way: an import
  // never re-runs its tail.
  batch.RemoveLocalFiles();
  HQ_RETURN_NOT_OK(staged);

  common::MutexLock lock(&mu_);
  stats_.chunks = chunk_counter_;
  stats_.rows_received = row_counter_;
  stats_.rows_staged = batch.rows_staged;
  stats_.bytes_received = bytes_received_;
  stats_.data_errors = batch.errors.size();
  stats_.files_uploaded = batch.files.size() + batch.qrtn_files.size();
  stats_.bytes_uploaded = 0;
  for (const auto* files : {&batch.files, &batch.qrtn_files}) {
    for (const FinalizedFile& f : *files) stats_.bytes_uploaded += f.final_bytes;
  }
  stats_.rows_copied = batch.rows_staged;  // Stage checked the COPY count
  stats_.chunks_abandoned = batch.chunks_abandoned;
  stats_.bytes_staged = batch.bytes_staged;
  stats_.rows_quarantined = batch.quality.rows_quarantined;
  timings_.acquisition_seconds = acquisition_timer_.ElapsedSeconds();
  quality_report_ = tail_->QualityReport(batch.quality);
  batch_ = std::move(batch);

  const QualityOptions& policy = tail_->ctx().options.quality;
  if (!quality_report_.enabled || !policy.abort_over_threshold) return Status::OK();
  // Reason-coded graceful degradation, job flavor: the load aborts (the
  // quarantine table and report survive) when the job-level watermark or any
  // nullrate ceiling is breached.
  if (quality_report_.violation_rate > policy.max_violation_rate) {
    return Status::ConstraintViolation(
        "quality violation rate " + std::to_string(quality_report_.violation_rate) +
        " exceeds max_violation_rate " + std::to_string(policy.max_violation_rate) + " (" +
        std::to_string(quality_report_.rows_quarantined) + " of " +
        std::to_string(quality_report_.rows_checked) + " rows quarantined to " +
        tail_->quarantine_table() + ")");
  }
  for (const auto& c : quality_report_.constraints) {
    if (c.breached) {
      return Status::ConstraintViolation("quality constraint " + c.column + " " + c.bound +
                                         " breached (observed " + std::to_string(c.observed) +
                                         "); quarantine table " + tail_->quarantine_table());
    }
  }
  return Status::OK();
}

Result<legacy::JobReportBody> ImportJob::ApplyDml(const std::string& label,
                                                  const std::string& sql) {
  (void)label;
  Status fatal = fatal_status();
  if (!fatal.ok()) {
    tail_->End(fatal);
    return fatal;
  }
  Result<legacy::JobReportBody> report = ApplyBatch(sql);
  if (report.ok()) {
    tail_->End(Status::OK());
  } else {
    Fail(report.status());
  }
  return report;
}

Result<legacy::JobReportBody> ImportJob::ApplyBatch(const std::string& sql) {
  common::Stopwatch app_timer;
  HQ_ASSIGN_OR_RETURN(sql::StatementPtr legacy_stmt, sql::ParseStatement(sql));
  SealedBatch batch;
  {
    common::MutexLock lock(&mu_);
    batch = std::move(batch_);
  }
  HQ_ASSIGN_OR_RETURN(DmlApplyResult dml, tail_->Apply(legacy_stmt.get(), &batch));

  // Staging table is job-scoped scratch state; the CDW's COPY-idempotence
  // ledger for it goes with it.
  cdw::CdwServer* cdw = tail_->ctx().cdw;
  HQ_RETURN_NOT_OK(cdw->catalog()->DropTable(tail_->staging_table(), /*if_exists=*/true));
  cdw->ForgetCopies(tail_->staging_table());

  // Publish the result and application timing under the job lock: sessions
  // may poll JobDmlResult()/JobTimings() while the apply is still running.
  {
    common::MutexLock lock(&mu_);
    dml_result_ = dml;
    timings_.application_seconds = app_timer.ElapsedSeconds();
  }

  legacy::JobReportBody report;
  report.rows_inserted = dml.rows_inserted;
  report.rows_updated = dml.rows_updated;
  report.rows_deleted = dml.rows_deleted;
  report.et_errors = dml.et_errors + batch.errors.size();
  report.uv_errors = dml.uv_errors;
  report.message = "job " + job_id_ + " complete";
  return report;
}

PhaseTimings ImportJob::timings() const {
  common::MutexLock lock(&mu_);
  return timings_;
}

AcquisitionStats ImportJob::stats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

DmlApplyResult ImportJob::dml_result() const {
  common::MutexLock lock(&mu_);
  return dml_result_;
}

QualityJobReport ImportJob::quality_report() const {
  common::MutexLock lock(&mu_);
  return quality_report_;
}

}  // namespace hyperq::core

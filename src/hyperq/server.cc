#include "hyperq/server.h"

#include <cstdlib>

#include "common/fault.h"
#include "common/logging.h"
#include "common/retry.h"
#include "hyperq/coalescer.h"
#include "obs/export.h"
#include "legacy/row_format.h"
#include "sql/transpiler.h"

namespace hyperq::core {

using common::Result;
using common::Status;
using legacy::Message;
using legacy::Parcel;
using legacy::ParcelKind;

namespace {

/// Maps internal status codes to legacy-style numeric error codes for
/// Failure parcels.
uint32_t LegacyCodeFor(const Status& s) {
  switch (s.code()) {
    case common::StatusCode::kParseError:
      return 3706;  // syntax error
    case common::StatusCode::kNotFound:
      return 3807;  // object does not exist
    case common::StatusCode::kConstraintViolation:
      return 2801;  // duplicate unique key
    case common::StatusCode::kConversionError:
      return 2666;
    case common::StatusCode::kResourceExhausted:
      return 3710;  // insufficient memory
    // Codes with no legacy analogue map into a synthetic 9xxx band so the
    // client can still distinguish them; spelled out so the next StatusCode
    // gets a deliberate mapping decision instead of silently landing here.
    case common::StatusCode::kOk:
    case common::StatusCode::kInvalid:
    case common::StatusCode::kIOError:
    case common::StatusCode::kAlreadyExists:
    case common::StatusCode::kNotImplemented:
    case common::StatusCode::kProtocolError:
    case common::StatusCode::kTypeError:
    case common::StatusCode::kCancelled:
    case common::StatusCode::kInternal:
      break;
  }
  return 9000 + static_cast<uint32_t>(s.code());
}

Message FailureMessage(uint32_t session_id, uint32_t seq, const Status& s) {
  legacy::FailureBody failure;
  failure.code = LegacyCodeFor(s);
  failure.message = s.ToString();
  return legacy::MakeMessage(session_id, seq, failure.Encode());
}

}  // namespace

HyperQServer::HyperQServer(cdw::CdwServer* cdw, cloud::ObjectStore* store, HyperQOptions options)
    : cdw_(cdw),
      store_(store),
      options_(std::move(options)),
      credits_(options_.credit_pool_size),
      converter_pool_(options_.converter_workers),
      memory_(options_.memory_budget_bytes) {
  // Arm the node's fault spec unless the HQ_FAULTS environment variable is
  // set (the env spec takes precedence and was armed on first injector use).
  if (!options_.fault_spec.empty() && std::getenv("HQ_FAULTS") == nullptr) {
    Status armed = common::FaultInjector::Global().Arm(options_.fault_spec);
    if (!armed.ok()) {
      HQ_LOG_WARN() << "ignoring invalid fault_spec: " << armed.ToString();
    }
  }
  if (options_.buffer_pool_max_buffers != 0) {
    common::BufferPoolOptions pool_options;
    pool_options.max_buffers = options_.buffer_pool_max_buffers;
    pool_options.max_bytes = options_.buffer_pool_max_bytes;
    buffer_pool_ = std::make_unique<common::BufferPool>(pool_options);
  }
  if (options_.enable_observability) {
    if (options_.metrics != nullptr) {
      metrics_ = options_.metrics;
    } else {
      owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
      metrics_ = owned_metrics_.get();
    }
    if (options_.tracer != nullptr) {
      tracer_ = options_.tracer;
    } else {
      owned_tracer_ = std::make_unique<obs::Tracer>();
      tracer_ = owned_tracer_.get();
    }
    credits_.BindMetrics(metrics_);
    m_.sessions_total = metrics_->GetCounter("hyperq_sessions_total");
    m_.parcels_total = metrics_->GetCounter("hyperq_parcels_total");
    m_.sessions_active = metrics_->GetGauge("hyperq_sessions_active");
    m_.converter_queue = metrics_->GetGauge("hyperq_converter_queue_depth");
    m_.converter_active = metrics_->GetGauge("hyperq_converter_workers_active");
    m_.memory_in_flight = metrics_->GetGauge("hyperq_memory_in_flight_bytes");
    m_.pool_buffers = metrics_->GetGauge("hyperq_buffer_pool_buffers");
    m_.pool_bytes = metrics_->GetGauge("hyperq_buffer_pool_bytes");
    m_.pool_hits = metrics_->GetGauge("hyperq_buffer_pool_hits");
    m_.pool_misses = metrics_->GetGauge("hyperq_buffer_pool_misses");
    m_.decode_seconds = metrics_->GetHistogram("hyperq_parcel_decode_seconds");
    m_.lock_edges = metrics_->GetGauge("hyperq_lock_order_edges");
    for (int r = 0; r < common::kNumLockRanks; ++r) {
      m_.lock_contention[r] = metrics_->GetGauge(
          std::string("hyperq_lock_contention_total{rank=\"") +
          common::LockRankName(static_cast<common::LockRank>(r)) + "\"}");
    }
  }
}

HyperQServer::~HyperQServer() { Stop(); }

void HyperQServer::Start() {
  common::MutexLock lock(&lifecycle_mu_);
  if (started_) return;
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void HyperQServer::Stop() {
  common::MutexLock lifecycle_lock(&lifecycle_mu_);
  if (!started_) return;
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> sessions;
  {
    common::MutexLock lock(&sessions_mu_);
    sessions.swap(session_threads_);
    // Force EOF on any session whose client is still connected.
    for (auto& weak : session_transports_) {
      if (auto transport = weak.lock()) transport->Close();
    }
    session_transports_.clear();
  }
  for (auto& t : sessions) {
    if (t.joinable()) t.join();
  }
  started_ = false;
}

std::shared_ptr<net::Transport> HyperQServer::Connect() { return listener_.Dial(); }

void HyperQServer::AcceptLoop() {
  for (;;) {
    auto transport = listener_.Accept();
    if (!transport.has_value()) return;
    common::MutexLock lock(&sessions_mu_);
    session_transports_.push_back(*transport);
    session_threads_.emplace_back(
        [this, t = std::move(*transport)]() mutable { HandleSession(std::move(t)); });
  }
}

JobContext HyperQServer::MakeJobContext() {
  JobContext ctx;
  ctx.cdw = cdw_;
  ctx.store = store_;
  ctx.credits = &credits_;
  ctx.converter_pool = &converter_pool_;
  ctx.memory = &memory_;
  ctx.buffers = buffer_pool_.get();
  ctx.metrics = metrics_;
  ctx.tracer = tracer_;
  ctx.options = options_;
  return ctx;
}

Result<std::shared_ptr<ImportJob>> HyperQServer::GetOrCreateImportJob(
    const legacy::BeginLoadBody& begin) {
  common::MutexLock lock(&jobs_mu_);
  auto it = import_jobs_.find(begin.job_id);
  if (it != import_jobs_.end()) return it->second;
  HQ_ASSIGN_OR_RETURN(std::shared_ptr<ImportJob> job,
                      ImportJob::Create(begin.job_id, begin, MakeJobContext()));
  import_jobs_[begin.job_id] = job;
  return job;
}

Result<std::shared_ptr<ExportJob>> HyperQServer::GetOrCreateExportJob(
    const legacy::BeginExportBody& begin) {
  common::MutexLock lock(&jobs_mu_);
  auto it = export_jobs_.find(begin.job_id);
  if (it != export_jobs_.end()) return it->second;
  HQ_ASSIGN_OR_RETURN(std::shared_ptr<ExportJob> job,
                      ExportJob::Create(begin.job_id, begin, cdw_, options_, metrics_, tracer_));
  export_jobs_[begin.job_id] = job;
  return job;
}

Result<std::shared_ptr<stream::StreamJob>> HyperQServer::GetOrCreateStreamJob(
    const legacy::BeginStreamBody& begin) {
  common::MutexLock lock(&jobs_mu_);
  auto it = stream_jobs_.find(begin.job_id);
  if (it != stream_jobs_.end()) return it->second;
  HQ_ASSIGN_OR_RETURN(std::shared_ptr<stream::StreamJob> job,
                      stream::StreamJob::Create(begin.job_id, begin, MakeJobContext()));
  stream_jobs_[begin.job_id] = job;
  return job;
}

void HyperQServer::HandleSession(std::shared_ptr<net::Transport> transport) {
  Coalescer coalescer(std::move(transport));
  coalescer.BindDecodeHistogram(m_.decode_seconds);
  if (m_.sessions_total != nullptr) {
    m_.sessions_total->Increment();
    m_.sessions_active->Add(1);
  }
  struct SessionGauge {
    obs::Gauge* g;
    ~SessionGauge() {
      if (g != nullptr) g->Sub(1);
    }
  } session_gauge{m_.sessions_active};

  uint32_t session_id = 0;
  uint32_t seq = 0;
  std::shared_ptr<ImportJob> import_job;
  std::shared_ptr<ExportJob> export_job;
  std::shared_ptr<stream::StreamJob> stream_job;

  auto reply = [&](Message msg) { return coalescer.Send(msg); };
  auto reply_failure = [&](const Status& s) {
    (void)reply(FailureMessage(session_id, ++seq, s));
  };

  for (;;) {
    auto msg = coalescer.NextMessage();
    if (!msg.ok()) {
      if (!msg.status().IsCancelled()) {
        HQ_LOG_WARN() << "session " << session_id << ": " << msg.status().ToString();
      }
      return;
    }
    if (msg->parcels.empty()) continue;
    const Parcel& parcel = msg->parcels[0];
    if (m_.parcels_total != nullptr) m_.parcels_total->Increment(msg->parcels.size());
    // Attribute the parcel's decode cost to the trace of whichever job the
    // session serves, import or stream (decode ran before we knew the owning
    // job, hence post-hoc recording).
    if (parcel.kind == ParcelKind::kDataChunk) {
      std::shared_ptr<obs::Trace> trace = import_job != nullptr   ? import_job->trace()
                                          : stream_job != nullptr ? stream_job->trace()
                                                                  : nullptr;
      if (trace != nullptr) {
        auto end = coalescer.last_decode_end();
        trace->RecordSpan(obs::Phase::kParcelDecode, "decode", 0,
                          end - coalescer.last_decode_elapsed(), end);
      }
    }

    switch (parcel.kind) {
      case ParcelKind::kLogonRequest: {
        auto body = legacy::LogonRequestBody::Decode(parcel);
        if (!body.ok()) {
          reply_failure(body.status());
          break;
        }
        session_id = next_session_id_.fetch_add(1);
        legacy::LogonOkBody ok;
        ok.session_id = session_id;
        ok.server_banner = options_.server_banner;
        (void)reply(legacy::MakeMessage(session_id, ++seq, ok.Encode()));
        break;
      }

      case ParcelKind::kRunRequest: {
        // PXC: cross-compile the legacy SQL; Beta: execute + encode results.
        auto body = legacy::RunRequestBody::Decode(parcel);
        if (!body.ok()) {
          reply_failure(body.status());
          break;
        }
        auto cdw_sql = sql::TranspileSqlText(body->sql);
        if (!cdw_sql.ok()) {
          reply_failure(cdw_sql.status());
          break;
        }
        cdw::ExecOptions exec;
        exec.enforce_unique_primary = options_.enforce_uniqueness;
        // Injected cdw.exec faults fire before the statement runs, so a
        // retry never re-executes a committed DML.
        common::RetryOptions retry_options = options_.io_retry;
        retry_options.breaker = common::BreakerFor("cdw");
        common::RetryPolicy retry(std::move(retry_options));
        auto result = retry.RunResult<cdw::ExecResult>(
            "cdw.exec",
            [&](const common::RetryAttempt&) { return cdw_->ExecuteSql(*cdw_sql, exec); });
        if (!result.ok()) {
          reply_failure(result.status());
          break;
        }
        Message out;
        out.session_id = session_id;
        out.seq = ++seq;
        legacy::StatementStatusBody status_body;
        status_body.code = 0;
        status_body.activity_count = result->activity_count();
        out.parcels.push_back(status_body.Encode());
        if (result->schema.num_fields() > 0) {
          legacy::DataSetHeaderBody header;
          header.schema = result->schema;
          out.parcels.push_back(header.Encode());
          legacy::BinaryRowCodec codec(result->schema);
          bool encode_ok = true;
          for (const auto& row : result->rows) {
            types::Row coerced;
            coerced.reserve(row.size());
            for (size_t i = 0; i < row.size(); ++i) {
              auto v = types::CastValue(row[i], result->schema.field(i).type);
              if (!v.ok()) {
                reply_failure(v.status());
                encode_ok = false;
                break;
              }
              coerced.push_back(std::move(v).ValueOrDie());
            }
            if (!encode_ok) break;
            common::ByteBuffer record;
            Status s = codec.EncodeRow(coerced, &record);
            if (!s.ok()) {
              reply_failure(s);
              encode_ok = false;
              break;
            }
            Parcel rec;
            rec.kind = ParcelKind::kRecord;
            rec.payload = std::move(record.vector());
            out.parcels.push_back(std::move(rec));
          }
          if (!encode_ok) break;
          Parcel end;
          end.kind = ParcelKind::kEndStatement;
          out.parcels.push_back(std::move(end));
        }
        (void)reply(out);
        break;
      }

      case ParcelKind::kBeginLoad: {
        auto body = legacy::BeginLoadBody::Decode(parcel);
        if (!body.ok()) {
          reply_failure(body.status());
          break;
        }
        // A session serves either a batch load or a stream, never both.
        if (stream_job != nullptr) {
          reply_failure(Status::ProtocolError("session already serves stream " +
                                              stream_job->job_id() + "; BeginLoad refused"));
          break;
        }
        auto job = GetOrCreateImportJob(*body);
        if (!job.ok()) {
          reply_failure(job.status());
          break;
        }
        import_job = *job;
        Parcel ready;
        ready.kind = ParcelKind::kLoadReady;
        (void)reply(legacy::MakeMessage(session_id, ++seq, std::move(ready)));
        break;
      }

      case ParcelKind::kDataChunk: {
        auto body = legacy::DataChunkBody::Decode(parcel);
        if (!body.ok()) {
          reply_failure(body.status());
          break;
        }
        if (!import_job && !stream_job) {
          reply_failure(Status::ProtocolError("DataChunk before BeginLoad"));
          break;
        }
        // A session serves either a batch load or a stream, never both.
        Status s = stream_job != nullptr ? stream_job->SubmitChunk(*body)
                                         : import_job->SubmitChunk(*body);
        if (!s.ok()) {
          reply_failure(s);
          break;
        }
        // Minimal processing done: acknowledge immediately; conversion and
        // serialization continue in the background (Section 5).
        legacy::ChunkAckBody ack;
        ack.chunk_seq = body->chunk_seq;
        (void)reply(legacy::MakeMessage(session_id, ++seq, ack.Encode()));
        break;
      }

      case ParcelKind::kEndLoad: {
        auto body = legacy::EndLoadBody::Decode(parcel);
        if (!body.ok()) {
          reply_failure(body.status());
          break;
        }
        if (!import_job) {
          reply_failure(Status::ProtocolError("EndLoad before BeginLoad"));
          break;
        }
        Status s = import_job->FinishAcquisition(body->total_chunks, body->total_rows);
        if (!s.ok()) {
          reply_failure(s);
          break;
        }
        legacy::StatementStatusBody status_body;
        status_body.code = 0;
        status_body.activity_count = import_job->stats().rows_copied;
        status_body.message = "acquisition complete";
        (void)reply(legacy::MakeMessage(session_id, ++seq, status_body.Encode()));
        break;
      }

      case ParcelKind::kApplyDml: {
        auto body = legacy::ApplyDmlBody::Decode(parcel);
        if (!body.ok()) {
          reply_failure(body.status());
          break;
        }
        if (!import_job) {
          reply_failure(Status::ProtocolError("ApplyDml before BeginLoad"));
          break;
        }
        auto report = import_job->ApplyDml(body->label, body->sql);
        if (!report.ok()) {
          reply_failure(report.status());
          break;
        }
        (void)reply(legacy::MakeMessage(session_id, ++seq, report->Encode()));
        break;
      }

      case ParcelKind::kBeginExport: {
        auto body = legacy::BeginExportBody::Decode(parcel);
        if (!body.ok()) {
          reply_failure(body.status());
          break;
        }
        auto job = GetOrCreateExportJob(*body);
        if (!job.ok()) {
          reply_failure(job.status());
          break;
        }
        export_job = *job;
        legacy::ExportReadyBody ready;
        ready.schema = export_job->schema();
        ready.total_chunks = export_job->total_chunks();
        (void)reply(legacy::MakeMessage(session_id, ++seq, ready.Encode()));
        break;
      }

      case ParcelKind::kExportChunkRequest: {
        auto body = legacy::ExportChunkRequestBody::Decode(parcel);
        if (!body.ok()) {
          reply_failure(body.status());
          break;
        }
        if (!export_job) {
          reply_failure(Status::ProtocolError("ExportChunkRequest before BeginExport"));
          break;
        }
        auto chunk = export_job->GetChunk(body->chunk_seq);
        if (!chunk.ok()) {
          reply_failure(chunk.status());
          break;
        }
        // export.send: the hop that pushes the chunk back over the legacy
        // wire. Injected faults fire before the reply is written, so a retry
        // re-sends the same already-materialized chunk (GetChunk caches).
        common::RetryOptions send_options = options_.io_retry;
        send_options.breaker = common::BreakerFor("export");
        common::RetryPolicy send_retry(std::move(send_options));
        Status sent = send_retry.Run("export.send", [&](const common::RetryAttempt&) {
          return common::FaultInjector::Global().Inject("export.send");
        });
        if (!sent.ok()) {
          reply_failure(sent);
          break;
        }
        (void)reply(legacy::MakeMessage(session_id, ++seq, chunk->Encode()));
        break;
      }

      case ParcelKind::kEndExport: {
        if (export_job) {
          common::MutexLock lock(&jobs_mu_);
          export_jobs_.erase(export_job->job_id());
          export_job.reset();
        }
        legacy::StatementStatusBody status_body;
        status_body.code = 0;
        status_body.message = "export complete";
        (void)reply(legacy::MakeMessage(session_id, ++seq, status_body.Encode()));
        break;
      }

      case ParcelKind::kBeginStream: {
        auto body = legacy::BeginStreamBody::Decode(parcel);
        if (!body.ok()) {
          reply_failure(body.status());
          break;
        }
        // A session serves either a batch load or a stream, never both.
        if (import_job != nullptr) {
          reply_failure(Status::ProtocolError("session already serves batch load " +
                                              import_job->job_id() + "; BeginStream refused"));
          break;
        }
        auto job = GetOrCreateStreamJob(*body);
        if (!job.ok()) {
          reply_failure(job.status());
          break;
        }
        stream_job = *job;
        Parcel ready;
        ready.kind = ParcelKind::kStreamReady;
        (void)reply(legacy::MakeMessage(session_id, ++seq, std::move(ready)));
        break;
      }

      case ParcelKind::kStreamLayout: {
        auto body = legacy::StreamLayoutBody::Decode(parcel);
        if (!body.ok()) {
          reply_failure(body.status());
          break;
        }
        if (!stream_job) {
          reply_failure(Status::ProtocolError("StreamLayout before BeginStream"));
          break;
        }
        Status s = stream_job->ChangeLayout(body->layout);
        if (!s.ok()) {
          reply_failure(s);
          break;
        }
        legacy::StatementStatusBody status_body;
        status_body.code = 0;
        status_body.message = "layout changed";
        (void)reply(legacy::MakeMessage(session_id, ++seq, status_body.Encode()));
        break;
      }

      case ParcelKind::kCommitBatch: {
        auto body = legacy::CommitBatchBody::Decode(parcel);
        if (!body.ok()) {
          reply_failure(body.status());
          break;
        }
        if (!stream_job) {
          reply_failure(Status::ProtocolError("CommitBatch before BeginStream"));
          break;
        }
        auto committed = stream_job->CommitBatch(body->batch_seq, body->watermark_micros);
        if (!committed.ok()) {
          reply_failure(committed.status());
          break;
        }
        (void)reply(legacy::MakeMessage(session_id, ++seq, committed->Encode()));
        break;
      }

      case ParcelKind::kEndStream: {
        auto body = legacy::EndStreamBody::Decode(parcel);
        if (!body.ok()) {
          reply_failure(body.status());
          break;
        }
        if (!stream_job) {
          reply_failure(Status::ProtocolError("EndStream before BeginStream"));
          break;
        }
        auto report = stream_job->Finish(body->total_chunks, body->total_rows);
        if (!report.ok()) {
          reply_failure(report.status());
          break;
        }
        stream_job.reset();
        (void)reply(legacy::MakeMessage(session_id, ++seq, report->Encode()));
        break;
      }

      case ParcelKind::kLogoff:
        return;

      // Server-to-client kinds: a client sending one is a protocol
      // violation. Enumerated (not defaulted) so adding a new request kind
      // to ParcelKind forces a decision here instead of silently bouncing.
      case ParcelKind::kLogonOk:
      case ParcelKind::kFailure:
      case ParcelKind::kStatementStatus:
      case ParcelKind::kDataSetHeader:
      case ParcelKind::kRecord:
      case ParcelKind::kEndStatement:
      case ParcelKind::kLoadReady:
      case ParcelKind::kChunkAck:
      case ParcelKind::kJobReport:
      case ParcelKind::kExportReady:
      case ParcelKind::kExportChunk:
      case ParcelKind::kStreamReady:
      case ParcelKind::kBatchCommitted:
        reply_failure(Status::ProtocolError(
            "unexpected parcel: " + std::string(legacy::ParcelKindName(parcel.kind))));
        break;
    }
  }
}

Result<PhaseTimings> HyperQServer::JobTimings(const std::string& job_id) const {
  common::MutexLock lock(&jobs_mu_);
  auto it = import_jobs_.find(job_id);
  if (it == import_jobs_.end()) return Status::NotFound("job not found: " + job_id);
  return it->second->timings();
}

Result<AcquisitionStats> HyperQServer::JobStats(const std::string& job_id) const {
  common::MutexLock lock(&jobs_mu_);
  auto it = import_jobs_.find(job_id);
  if (it == import_jobs_.end()) return Status::NotFound("job not found: " + job_id);
  return it->second->stats();
}

Result<DmlApplyResult> HyperQServer::JobDmlResult(const std::string& job_id) const {
  common::MutexLock lock(&jobs_mu_);
  auto it = import_jobs_.find(job_id);
  if (it == import_jobs_.end()) return Status::NotFound("job not found: " + job_id);
  return it->second->dml_result();
}

Result<QualityJobReport> HyperQServer::JobQualityReport(const std::string& job_id) const {
  common::MutexLock lock(&jobs_mu_);
  if (auto it = import_jobs_.find(job_id); it != import_jobs_.end()) {
    return it->second->quality_report();
  }
  if (auto it = stream_jobs_.find(job_id); it != stream_jobs_.end()) {
    return it->second->quality_report();
  }
  return Status::NotFound("job not found: " + job_id);
}

Result<std::string> HyperQServer::JobQuarantineTable(const std::string& job_id) const {
  common::MutexLock lock(&jobs_mu_);
  if (auto it = import_jobs_.find(job_id); it != import_jobs_.end()) {
    return it->second->quarantine_table();
  }
  if (auto it = stream_jobs_.find(job_id); it != stream_jobs_.end()) {
    return it->second->quarantine_table();
  }
  return Status::NotFound("job not found: " + job_id);
}

Result<stream::StreamStats> HyperQServer::StreamJobStats(const std::string& job_id) const {
  common::MutexLock lock(&jobs_mu_);
  auto it = stream_jobs_.find(job_id);
  if (it == stream_jobs_.end()) return Status::NotFound("stream job not found: " + job_id);
  return it->second->stats();
}

obs::MetricsSnapshot HyperQServer::MetricsSnapshot() const {
  if (metrics_ == nullptr) return {};
  // Sampled gauges: these track pool state only while jobs actively poke
  // them, so refresh from the live sources before snapshotting.
  m_.converter_queue->Set(static_cast<int64_t>(converter_pool_.queued()));
  m_.converter_active->Set(static_cast<int64_t>(converter_pool_.active()));
  m_.memory_in_flight->Set(static_cast<int64_t>(memory_.used()));
  if (buffer_pool_ != nullptr) {
    common::BufferPoolStats pool = buffer_pool_->stats();
    m_.pool_buffers->Set(static_cast<int64_t>(pool.buffers_pooled));
    m_.pool_bytes->Set(static_cast<int64_t>(pool.bytes_pooled));
    m_.pool_hits->Set(static_cast<int64_t>(pool.hits));
    m_.pool_misses->Set(static_cast<int64_t>(pool.misses));
  }
  common::LockOrderSnapshot locks = common::LockOrderGraph::Global().Snapshot();
  m_.lock_edges->Set(static_cast<int64_t>(locks.edges.size()));
  for (int r = 0; r < common::kNumLockRanks; ++r) {
    m_.lock_contention[r]->Set(static_cast<int64_t>(locks.contention[r]));
  }
  // Pull-based resilience telemetry: src/common cannot depend on src/obs
  // (see retry.h layering note), so the injector, retry stats and breaker
  // registry accumulate process-wide counters that are polled into gauges
  // here, the same way the lock-contention gauges work.
  for (const auto& [point, count] : common::FaultInjector::Global().InjectedCounts()) {
    if (count == 0) continue;
    metrics_
        ->GetGauge("hyperq_faults_injected_total{point=\"" + std::string(point) + "\"}")
        ->Set(static_cast<int64_t>(count));
  }
  common::RetryStats::Snapshot retries = common::RetryStats::Global().Snap();
  for (const auto& [point, count] : retries.retries) {
    metrics_->GetGauge("hyperq_retry_attempts_total{point=\"" + point + "\"}")
        ->Set(static_cast<int64_t>(count));
  }
  for (const auto& [point, count] : retries.exhausted) {
    metrics_->GetGauge("hyperq_retry_exhausted_total{point=\"" + point + "\"}")
        ->Set(static_cast<int64_t>(count));
  }
  for (const auto& [endpoint, state] : common::BreakerStates()) {
    metrics_->GetGauge("hyperq_circuit_state{endpoint=\"" + endpoint + "\"}")
        ->Set(static_cast<int64_t>(state));
  }

  obs::MetricsSnapshot snap = metrics_->Snapshot();
  // Per-rank lock wait-time histograms live in the always-on LockOrderGraph
  // (a registry histogram per rank would need obs to be linked below
  // common); splice them into the snapshot under the standard bucket layout,
  // which LockWaitBucketBounds() mirrors.
  for (int r = 0; r < common::kNumLockRanks; ++r) {
    if (locks.wait_count[r] == 0) continue;
    obs::HistogramSnapshot h;
    h.count = locks.wait_count[r];
    h.sum = locks.wait_sum_seconds[r];
    h.buckets.assign(locks.wait_buckets[r],
                     locks.wait_buckets[r] + common::kNumLockWaitBuckets);
    snap.histograms[std::string("hyperq_lock_wait_seconds{rank=\"") +
                    common::LockRankName(static_cast<common::LockRank>(r)) + "\"}"] =
        std::move(h);
  }
  return snap;
}

std::string HyperQServer::LockGraph(LockGraphFormat format) const {
  common::LockOrderSnapshot locks = common::LockOrderGraph::Global().Snapshot();
  return format == LockGraphFormat::kJson ? obs::LockGraphToJson(locks)
                                          : obs::LockGraphToDot(locks);
}

Result<std::shared_ptr<obs::Trace>> HyperQServer::JobTrace(const std::string& job_id) const {
  if (tracer_ == nullptr) return Status::Invalid("observability is disabled");
  std::shared_ptr<obs::Trace> trace = tracer_->Find(job_id);
  if (trace == nullptr) return Status::NotFound("no trace for job: " + job_id);
  return trace;
}

}  // namespace hyperq::core

#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cdw/cdw_server.h"
#include "cloudstore/object_store.h"
#include "common/buffer_pool.h"
#include "common/memory_tracker.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "hyperq/credit_manager.h"
#include "hyperq/export_job.h"
#include "hyperq/hyperq_config.h"
#include "hyperq/import_job.h"
#include "net/listener.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/stream_job.h"

/// \file server.h
/// The Hyper-Q node. The Alpha process (network listener) accepts legacy
/// client connections; each connection is served by a session pipeline
/// (Coalescer -> PXC -> data path or Beta). Node-wide resources exist once
/// per node exactly as the paper prescribes: one CreditManager shared by all
/// concurrent ETL jobs (Section 5), one DataConverter worker pool, one
/// memory budget.

namespace hyperq::core {

class HyperQServer {
 public:
  HyperQServer(cdw::CdwServer* cdw, cloud::ObjectStore* store, HyperQOptions options = {});
  ~HyperQServer();

  HyperQServer(const HyperQServer&) = delete;
  HyperQServer& operator=(const HyperQServer&) = delete;

  /// Starts the Alpha accept loop.
  void Start() HQ_EXCLUDES(lifecycle_mu_);

  /// Stops accepting connections and joins finished session threads. Active
  /// sessions end when their clients log off / close.
  void Stop() HQ_EXCLUDES(lifecycle_mu_, sessions_mu_);

  /// Client-side dial (legacy tools "connect" here instead of to the EDW).
  std::shared_ptr<net::Transport> Connect();

  CreditManager* credit_manager() { return &credits_; }
  common::MemoryTracker* memory_tracker() { return &memory_; }
  /// Node-wide buffer recycler (null when buffer_pool_max_buffers == 0).
  common::BufferPool* buffer_pool() { return buffer_pool_.get(); }
  const HyperQOptions& options() const { return options_; }

  /// The node's metrics registry / tracer (null when observability is off).
  obs::MetricsRegistry* metrics() { return metrics_; }
  obs::Tracer* tracer() { return tracer_; }

  /// Point-in-time view of every node metric. Sampled gauges (converter
  /// queue depth / worker utilization, in-flight memory) are refreshed
  /// first. Empty snapshot when observability is disabled.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// Dump of the process-wide lock-order graph (observed rank-pair edges,
  /// per-rank contention, cycle analysis) — see common::LockOrderGraph and
  /// DESIGN.md "Lock hierarchy & deadlock detection". Available regardless
  /// of `enable_observability` (recording is always on).
  enum class LockGraphFormat { kDot, kJson };
  std::string LockGraph(LockGraphFormat format = LockGraphFormat::kDot) const;

  /// Per-job instrumentation, available after the job's DML apply (jobs are
  /// retained after completion).
  common::Result<PhaseTimings> JobTimings(const std::string& job_id) const HQ_EXCLUDES(jobs_mu_);
  common::Result<AcquisitionStats> JobStats(const std::string& job_id) const
      HQ_EXCLUDES(jobs_mu_);
  common::Result<DmlApplyResult> JobDmlResult(const std::string& job_id) const
      HQ_EXCLUDES(jobs_mu_);
  /// The job's data-quality outcome (enabled=false when the gate is off)
  /// and its quarantine table name ("" when the gate is off). Works for
  /// import and streaming jobs alike.
  common::Result<QualityJobReport> JobQualityReport(const std::string& job_id) const
      HQ_EXCLUDES(jobs_mu_);
  common::Result<std::string> JobQuarantineTable(const std::string& job_id) const
      HQ_EXCLUDES(jobs_mu_);
  /// The job's span tree (import and export jobs alike).
  common::Result<std::shared_ptr<obs::Trace>> JobTrace(const std::string& job_id) const;

  /// Streaming-session instrumentation (jobs are retained after EndStream).
  common::Result<stream::StreamStats> StreamJobStats(const std::string& job_id) const
      HQ_EXCLUDES(jobs_mu_);

 private:
  void AcceptLoop() HQ_EXCLUDES(sessions_mu_);
  void HandleSession(std::shared_ptr<net::Transport> transport) HQ_EXCLUDES(jobs_mu_);

  /// The node-wide services every import and stream job runs on.
  JobContext MakeJobContext();
  common::Result<std::shared_ptr<ImportJob>> GetOrCreateImportJob(
      const legacy::BeginLoadBody& begin) HQ_EXCLUDES(jobs_mu_);
  common::Result<std::shared_ptr<ExportJob>> GetOrCreateExportJob(
      const legacy::BeginExportBody& begin) HQ_EXCLUDES(jobs_mu_);
  common::Result<std::shared_ptr<stream::StreamJob>> GetOrCreateStreamJob(
      const legacy::BeginStreamBody& begin) HQ_EXCLUDES(jobs_mu_);

  cdw::CdwServer* cdw_;
  cloud::ObjectStore* store_;
  HyperQOptions options_;

  /// Observability plumbing. The server uses the injected registry/tracer
  /// from HyperQOptions when present, otherwise owns its own; both stay null
  /// when `enable_observability` is false (zero overhead — every hot-path
  /// call site tests one cached pointer).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  std::unique_ptr<obs::Tracer> owned_tracer_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  struct Instruments {
    obs::Counter* sessions_total = nullptr;
    obs::Counter* parcels_total = nullptr;
    obs::Gauge* sessions_active = nullptr;
    obs::Gauge* converter_queue = nullptr;
    obs::Gauge* converter_active = nullptr;
    obs::Gauge* memory_in_flight = nullptr;
    obs::Gauge* pool_buffers = nullptr;
    obs::Gauge* pool_bytes = nullptr;
    obs::Gauge* pool_hits = nullptr;
    obs::Gauge* pool_misses = nullptr;
    obs::Histogram* decode_seconds = nullptr;
    obs::Gauge* lock_edges = nullptr;
    obs::Gauge* lock_contention[common::kNumLockRanks] = {};
  } m_;

  CreditManager credits_;
  common::ThreadPool converter_pool_;
  common::MemoryTracker memory_;
  std::unique_ptr<common::BufferPool> buffer_pool_;

  net::Listener listener_;
  /// Serializes Start()/Stop(): without it two racing Stops (or a Stop racing
  /// a Start) both touch accept_thread_ and started_.
  common::Mutex lifecycle_mu_{common::LockRank::kLifecycle, "server_lifecycle"};
  std::thread accept_thread_ HQ_GUARDED_BY(lifecycle_mu_);
  bool started_ HQ_GUARDED_BY(lifecycle_mu_) = false;
  /// Stop() nests this inside lifecycle_mu_ (kLifecycle > kServer).
  common::Mutex sessions_mu_ HQ_ACQUIRED_AFTER(lifecycle_mu_){common::LockRank::kServer,
                                                              "server_sessions"};
  std::vector<std::thread> session_threads_ HQ_GUARDED_BY(sessions_mu_);
  /// Live session transports; Stop() closes them so handler threads blocked
  /// in a read observe EOF and exit (clients that never log off must not be
  /// able to wedge shutdown).
  std::vector<std::weak_ptr<net::Transport>> session_transports_ HQ_GUARDED_BY(sessions_mu_);
  std::atomic<uint32_t> next_session_id_{1};

  mutable common::Mutex jobs_mu_{common::LockRank::kServer, "server_jobs"};
  std::map<std::string, std::shared_ptr<ImportJob>> import_jobs_ HQ_GUARDED_BY(jobs_mu_);
  std::map<std::string, std::shared_ptr<ExportJob>> export_jobs_ HQ_GUARDED_BY(jobs_mu_);
  std::map<std::string, std::shared_ptr<stream::StreamJob>> stream_jobs_ HQ_GUARDED_BY(jobs_mu_);
};

}  // namespace hyperq::core

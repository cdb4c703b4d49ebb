#pragma once

#include <cstdint>
#include <string>

#include "cdw/staging_format.h"
#include "common/retry.h"
#include "hyperq/quality.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// \file hyperq_config.h
/// Tuning surface of a Hyper-Q node. These are the knobs the paper describes
/// customers configuring per ETL job requirement (Sections 5-7).

namespace hyperq::core {

/// How the adaptive error handler (Section 7) finds the bad tuples of a
/// failed set-oriented statement.
enum class ErrorIsolation : uint8_t {
  /// The paper's search: re-run the statement on halves of the failing
  /// HQ_ROWNUM range until single rows or a limit isolate the errors.
  kHalving,
  /// INSERT only: one suspect query asks the warehouse which rows would
  /// fail and steers the same walk: clean runs apply in one statement each
  /// and suspects run as singletons; a failed clean run hands the rest of
  /// the walk to halving.
  /// The ET, UV and target tables equal kHalving's (DESIGN.md "Error
  /// isolation (§7)").
  kPlanned,
};

struct HyperQOptions {
  /// DataConverter worker threads (paper: "several chunks are converted
  /// concurrently").
  size_t converter_workers = 4;

  /// FileWriter worker threads (paper: "multiple FileWriter processes
  /// working in parallel").
  size_t file_writers = 2;

  /// CreditManager pool size; one pool per node shared by all jobs.
  uint64_t credit_pool_size = 64;

  /// Staging file rotation threshold in bytes ("the maximum size of the
  /// serialized file is chosen to maximize the load performance").
  size_t file_size_threshold = 4u << 20;

  /// Compress finalized staging files before upload.
  bool compress_staging_files = false;

  /// Staging bytes written between the converter and COPY. kCsv (the
  /// compatibility default) stages escaped text that the CDW parses cell by
  /// cell; kBinary stages HQB1 typed columnar blocks (cdw/staging_binary.h)
  /// that COPY validates against the catalog fingerprint and appends without
  /// per-cell parsing — the direct-pipe load path. Streaming sessions fall
  /// back to kCsv for a session whose schema drift is type-changing (the
  /// negotiation rule; see DataConverter::CreateRemapped).
  cdw::StagingFormat staging_format = cdw::StagingFormat::kCsv;

  /// In-flight pipeline memory budget (0 = unlimited). Exceeding it is the
  /// simulated out-of-memory condition of Figure 10's one-million-credit run.
  uint64_t memory_budget_bytes = 0;

  /// Node-wide BufferPool recycling chunk payload copies and converted CSV
  /// buffers across converter pool -> sequenced queue -> FileWriter.
  /// `buffer_pool_max_buffers = 0` disables pooling entirely.
  size_t buffer_pool_max_buffers = 64;
  size_t buffer_pool_max_bytes = 64u << 20;

  /// Local directory for intermediate staging files.
  std::string local_staging_dir = "/tmp/hyperq_staging";

  /// Adaptive error handling (Section 7).
  uint64_t max_errors = 100;
  int max_retries = 64;
  /// The search strategy; kHalving reproduces the paper's statement counts
  /// (Fig 11's halving series, the planned-vs-halving differential).
  ErrorIsolation error_isolation = ErrorIsolation::kPlanned;

  /// Export chunking.
  size_t export_chunk_rows = 4096;
  size_t export_prefetch_chunks = 8;

  /// Emulated uniqueness enforcement (Section 7: "the CDW might not provide
  /// native support for uniqueness constraints. In those cases, Hyper-Q
  /// enforces uniqueness through emulation").
  bool enforce_uniqueness = true;

  std::string server_banner = "Hyper-Q ETL virtualization (LDWP bridge)";

  /// Fault-injection spec armed into the process-global FaultInjector at
  /// node construction (grammar in common/fault.h; same as the HQ_FAULTS
  /// env variable, which takes precedence when set). Empty = leave the
  /// injector alone.
  std::string fault_spec;

  /// Declarative data-quality gate (src/hyperq/quality.h): per-table
  /// constraint spec compiled into the conversion kernels, quarantine
  /// diversion into HQ_QRTN_<job>, and the degradation policy deciding
  /// quarantine-and-continue vs abort-over-threshold. `quality.spec = ""`
  /// keeps the gate off (zero hot-path cost beyond one predicted branch).
  QualityOptions quality;

  /// Retry policy for every transient-failure hop of the load path: staging
  /// uploads, COPY, DML/ET statements, export queries. Chunk staging shares
  /// it for the bounded per-chunk retry before a chunk is abandoned into the
  /// ET table (graceful degradation).
  common::RetryOptions io_retry;

  /// Runtime observability (src/obs/). When enabled the node keeps a
  /// MetricsRegistry and a per-job Tracer; pass shared instances here to
  /// aggregate with other components (object store, CDW), or leave null and
  /// the node owns its own. Disabling zeroes the instrumentation cost (all
  /// instrument pointers stay null on the hot path).
  bool enable_observability = true;
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

}  // namespace hyperq::core

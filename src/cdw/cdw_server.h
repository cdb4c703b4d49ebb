#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cdw/catalog.h"
#include "cdw/copy.h"
#include "cdw/executor.h"
#include "cdw/statement_workers.h"
#include "cloudstore/object_store.h"
#include "common/sync.h"
#include "obs/metrics.h"

/// \file cdw_server.h
/// Facade of the simulated cloud data warehouse: one catalog, one executor,
/// one attached object store, and a warehouse-level statement lock (cloud
/// DWs serialize DML per table; a single lock is a faithful-enough model for
/// the ETL workloads here). A configurable startup cost models the round
/// trip to the cloud service: it is paid once per request, which is one
/// statement, one batch of statements or one COPY. It is what makes
/// singleton-insert loading (the Figure 11 baseline) pay a per-row round
/// trip while bulk statements and batches amortize it.

namespace hyperq::cdw {

struct CdwServerOptions {
  /// Fixed cost added to every statement request (one statement or one
  /// batch), microseconds.
  int64_t statement_startup_micros = 0;
  /// Fixed cost added to every COPY, microseconds.
  int64_t copy_startup_micros = 0;
  /// Optional telemetry registry (cdw_statement_seconds/cdw_copy_seconds
  /// histograms, observed once per call, so a batch is one observation and
  /// their sums are the time spent inside the warehouse; the
  /// cdw_modelled_wait_seconds histogram: the time each request spent paying
  /// its startup cost; cdw_statements_total, which counts every statement,
  /// those inside a batch included; cdw_round_trips_total, which counts
  /// requests: statements, batches and COPYs; COPY/row counters,
  /// cdw_join_hash_total / cdw_join_nested_loop_total: successful
  /// join DML statements by the path that paired their rows, and
  /// cdw_rows_scanned_total: table rows every statement's scans visited,
  /// failed statements included; cdw_parallel_statements_total: statements
  /// and COPYs that split their work over the statement workers). Must
  /// outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  /// Cap on a table's COPY idempotence ledger; 0 = unbounded. When a COPY
  /// pushes the ledger past the cap, the lexicographically smallest keys are
  /// evicted first — streaming jobs stage micro-batches under zero-padded
  /// batch prefixes, so key order IS commit order and eviction is FIFO. The
  /// cap must exceed the number of objects one COPY can stage, or a retried
  /// COPY could re-ingest an object whose ledger entry was just evicted.
  size_t copy_ledger_max_entries = 0;
};

/// One statement of a batch (CdwServer::ExecBatch) and the outcome its
/// sender expects of it.
struct BatchStatement {
  std::string sql;
  ExecOptions options;
  /// Expected to fail with a conversion error; otherwise expected to
  /// succeed.
  bool expect_conversion_error = false;
};

class CdwServer {
 public:
  explicit CdwServer(cloud::ObjectStore* store, CdwServerOptions options = {});

  Catalog* catalog() { return &catalog_; }
  cloud::ObjectStore* store() { return store_; }

  /// Executes one SQL statement (CDW dialect text): a one-statement
  /// ExecBatch request.
  common::Result<ExecResult> ExecuteSql(std::string_view sql, const ExecOptions& options = {})
      HQ_EXCLUDES(mu_);

  /// Executes `batch` as one request, like JDBC executeBatch: one round trip,
  /// then the statements in order under one hold of the statement lock, each
  /// with its own options and its own set-oriented abort. Stops after the
  /// first statement whose outcome differs from its expectation, and returns
  /// one result per statement it ran. Fails before running any statement
  /// when the request is rejected (an injected cdw.exec fault), so a retried
  /// batch never half-ran.
  common::Result<std::vector<common::Result<ExecResult>>> ExecBatch(
      const std::vector<BatchStatement>& batch) HQ_EXCLUDES(mu_);

  /// COPY INTO <table> FROM @store/<prefix>. Idempotent under retry: a
  /// per-table ledger of already-ingested staged objects makes a re-issued
  /// COPY (lost ack) skip what the first attempt landed, and the returned
  /// row count is cumulative for the prefix either way.
  common::Result<uint64_t> CopyInto(const std::string& table_name, const std::string& prefix,
                                    const CopyOptions& options = {}) HQ_EXCLUDES(mu_);

  /// Drops the COPY idempotence ledger for `table_name`. Call whenever the
  /// table's staging prefix is recycled (e.g. the staging table is dropped
  /// after a finished acquisition), or stale entries would mask new objects
  /// that reuse old keys.
  void ForgetCopies(const std::string& table_name) HQ_EXCLUDES(mu_);

  /// Evicts ledger entries for `table_name` whose object key starts with
  /// `key_prefix`. Streaming sessions call this once a micro-batch's commit
  /// watermark is durable: the client will never re-send that batch, so its
  /// ledger entries can go without weakening exactly-once.
  void ForgetCopiesWithPrefix(const std::string& table_name,
                              const std::string& key_prefix) HQ_EXCLUDES(mu_);

  /// Current ledger size for `table_name` (0 when absent). Test hook for the
  /// eviction policies above.
  size_t CopyLedgerSize(const std::string& table_name) const HQ_EXCLUDES(mu_);

  uint64_t statements_executed() const HQ_EXCLUDES(mu_);

 private:
  /// Waits until `micros` after `arrival`, the time the request reached the
  /// server.
  void PayStartupCost(std::chrono::steady_clock::time_point arrival, int64_t micros) const;
  /// Executes one statement of a request and counts it.
  common::Result<ExecResult> RunStatement(std::string_view sql, const ExecOptions& options)
      HQ_REQUIRES(mu_);

  cloud::ObjectStore* store_;
  CdwServerOptions options_;
  Catalog catalog_;
  /// As many as the hardware has threads (DESIGN.md "Embedded CDW: parallel
  /// statements"). Used under mu_ only.
  StatementWorkers workers_;
  /// The single warehouse statement lock: statements and COPYs serialize on
  /// it, so one statement at a time uses the executor and the workers.
  mutable common::Mutex mu_{common::LockRank::kCdw, "cdw_server"};
  Executor executor_ HQ_GUARDED_BY(mu_);
  uint64_t statements_executed_ HQ_GUARDED_BY(mu_) = 0;
  /// COPY idempotence ledgers: table name -> (staged object key -> rows
  /// ingested from it). See CopyInto/ForgetCopies.
  std::map<std::string, std::map<std::string, uint64_t>> copied_objects_ HQ_GUARDED_BY(mu_);

  // Cached instrument pointers; null when options_.metrics is null.
  obs::Histogram* statement_latency_ = nullptr;
  obs::Histogram* copy_latency_ = nullptr;
  obs::Histogram* modelled_wait_ = nullptr;
  obs::Counter* statements_total_ = nullptr;
  obs::Counter* round_trips_total_ = nullptr;
  obs::Counter* copies_total_ = nullptr;
  obs::Counter* copy_rows_total_ = nullptr;
  // Direct-pipe COPY telemetry: staged objects ingested through the HQB1
  // binary path vs the CSV fallback (files / rows / decompressed bytes).
  obs::Counter* copy_binary_files_total_ = nullptr;
  obs::Counter* copy_binary_rows_total_ = nullptr;
  obs::Counter* copy_binary_bytes_total_ = nullptr;
  obs::Counter* copy_csv_files_total_ = nullptr;
  obs::Counter* copy_csv_rows_total_ = nullptr;
  obs::Counter* copy_csv_bytes_total_ = nullptr;
  obs::Counter* join_hash_total_ = nullptr;
  obs::Counter* join_nested_loop_total_ = nullptr;
  obs::Counter* rows_scanned_total_ = nullptr;
};

}  // namespace hyperq::cdw

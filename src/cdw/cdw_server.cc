#include "cdw/cdw_server.h"

#include <chrono>
#include <thread>

#include "common/fault.h"

namespace hyperq::cdw {

using common::Result;
using common::Status;

CdwServer::CdwServer(cloud::ObjectStore* store, CdwServerOptions options)
    : store_(store),
      options_(options),
      workers_(std::thread::hardware_concurrency(),
               options.metrics == nullptr
                   ? nullptr
                   : options.metrics->GetCounter("cdw_parallel_statements_total")),
      executor_(&catalog_, &workers_) {
  if (options_.metrics != nullptr) {
    statement_latency_ = options_.metrics->GetHistogram("cdw_statement_seconds");
    copy_latency_ = options_.metrics->GetHistogram("cdw_copy_seconds");
    modelled_wait_ = options_.metrics->GetHistogram("cdw_modelled_wait_seconds");
    statements_total_ = options_.metrics->GetCounter("cdw_statements_total");
    round_trips_total_ = options_.metrics->GetCounter("cdw_round_trips_total");
    copies_total_ = options_.metrics->GetCounter("cdw_copies_total");
    copy_rows_total_ = options_.metrics->GetCounter("cdw_copy_rows_total");
    copy_binary_files_total_ = options_.metrics->GetCounter("hyperq_copy_binary_files_total");
    copy_binary_rows_total_ = options_.metrics->GetCounter("hyperq_copy_binary_rows_total");
    copy_binary_bytes_total_ = options_.metrics->GetCounter("hyperq_copy_binary_bytes_total");
    copy_csv_files_total_ = options_.metrics->GetCounter("hyperq_copy_csv_files_total");
    copy_csv_rows_total_ = options_.metrics->GetCounter("hyperq_copy_csv_rows_total");
    copy_csv_bytes_total_ = options_.metrics->GetCounter("hyperq_copy_csv_bytes_total");
    join_hash_total_ = options_.metrics->GetCounter("cdw_join_hash_total");
    join_nested_loop_total_ = options_.metrics->GetCounter("cdw_join_nested_loop_total");
    rows_scanned_total_ = options_.metrics->GetCounter("cdw_rows_scanned_total");
  }
}

void CdwServer::PayStartupCost(std::chrono::steady_clock::time_point arrival,
                               int64_t micros) const {
  if (micros <= 0) return;
  // A sleep wakes up late by the scheduler's slack and latency (about 60 us
  // on average and 120 us at p99 on a 4-vCPU VM, more under host CPU steal),
  // so sleep to kWakeMargin before the deadline and yield from there.
  constexpr std::chrono::microseconds kWakeMargin{150};
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = arrival + std::chrono::microseconds(micros);
  const Clock::time_point start = Clock::now();
  std::this_thread::sleep_until(deadline - kWakeMargin);
  while (Clock::now() < deadline) std::this_thread::yield();
  if (modelled_wait_ != nullptr) {
    modelled_wait_->Observe(std::chrono::duration<double>(Clock::now() - start).count());
  }
}

Result<ExecResult> CdwServer::RunStatement(std::string_view sql, const ExecOptions& options) {
  if (statements_total_ != nullptr) statements_total_->Increment();
  ++statements_executed_;
  Result<ExecResult> result = executor_.ExecuteSql(sql, options);
  if (rows_scanned_total_ == nullptr) return result;
  // Failed statements scanned rows too, up to their first failing row.
  rows_scanned_total_->Increment(executor_.rows_scanned());
  if (!result.ok()) return result;
  if (result->join_path == JoinPath::kHash) join_hash_total_->Increment();
  if (result->join_path == JoinPath::kNestedLoop) join_nested_loop_total_->Increment();
  return result;
}

Result<ExecResult> CdwServer::ExecuteSql(std::string_view sql, const ExecOptions& options) {
  HQ_ASSIGN_OR_RETURN(std::vector<Result<ExecResult>> results,
                      ExecBatch({BatchStatement{std::string(sql), options}}));
  return std::move(results.front());
}

Result<std::vector<Result<ExecResult>>> CdwServer::ExecBatch(
    const std::vector<BatchStatement>& batch) {
  const auto arrival = std::chrono::steady_clock::now();
  // One request, one injection point: a fault rejects the whole request
  // before any statement of it runs, so retrying a failed (possibly
  // non-idempotent) DML statement is safe: a failed statement never half-ran.
  HQ_RETURN_NOT_OK(common::FaultInjector::Global().Inject("cdw.exec"));
  obs::ScopedTimer timer(statement_latency_);
  if (round_trips_total_ != nullptr) round_trips_total_->Increment();
  PayStartupCost(arrival, options_.statement_startup_micros);
  common::MutexLock lock(&mu_);
  std::vector<Result<ExecResult>> results;
  results.reserve(batch.size());
  for (const BatchStatement& statement : batch) {
    results.push_back(RunStatement(statement.sql, statement.options));
    const Status& status = results.back().status();
    if (statement.expect_conversion_error ? !status.IsConversionError() : !status.ok()) break;
  }
  return results;
}

Result<uint64_t> CdwServer::CopyInto(const std::string& table_name, const std::string& prefix,
                                     const CopyOptions& options) {
  const auto arrival = std::chrono::steady_clock::now();
  // error/torn fire before any work (the service rejected the COPY); drop
  // fires AFTER the COPY ran — the ack is lost, which is exactly the case
  // the idempotence ledger exists for.
  common::FaultDecision fault = common::FaultInjector::Global().Check("cdw.copy");
  if (fault.fired && fault.kind != common::FaultKind::kDrop && !fault.status.ok()) {
    return fault.status;
  }
  obs::ScopedTimer timer(copy_latency_);
  if (copies_total_ != nullptr) copies_total_->Increment();
  if (round_trips_total_ != nullptr) round_trips_total_->Increment();
  PayStartupCost(arrival, options_.copy_startup_micros);
  common::MutexLock lock(&mu_);
  HQ_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(table_name));
  std::map<std::string, uint64_t>& ledger = copied_objects_[table_name];
  CopyStats stats;
  Result<uint64_t> copied =
      CopyFromStore(table.get(), *store_, prefix, options, &ledger, &stats, &workers_);
  if (copied.ok() && copy_binary_files_total_ != nullptr) {
    copy_binary_files_total_->Increment(stats.binary_files);
    copy_binary_rows_total_->Increment(stats.binary_rows);
    copy_binary_bytes_total_->Increment(stats.binary_bytes);
    copy_csv_files_total_->Increment(stats.csv_files);
    copy_csv_rows_total_->Increment(stats.csv_rows);
    copy_csv_bytes_total_->Increment(stats.csv_bytes);
  }
  if (copied.ok() && options_.copy_ledger_max_entries > 0) {
    // Oldest-key-first eviction; see CdwServerOptions::copy_ledger_max_entries
    // for why key order is commit order for the callers that set a cap.
    while (ledger.size() > options_.copy_ledger_max_entries) {
      ledger.erase(ledger.begin());
    }
  }
  if (copied.ok() && copy_rows_total_ != nullptr) copy_rows_total_->Increment(*copied);
  if (copied.ok() && fault.fired && fault.kind == common::FaultKind::kDrop) {
    return fault.status;
  }
  return copied;
}

void CdwServer::ForgetCopies(const std::string& table_name) {
  common::MutexLock lock(&mu_);
  copied_objects_.erase(table_name);
}

void CdwServer::ForgetCopiesWithPrefix(const std::string& table_name,
                                       const std::string& key_prefix) {
  common::MutexLock lock(&mu_);
  auto it = copied_objects_.find(table_name);
  if (it == copied_objects_.end()) return;
  std::map<std::string, uint64_t>& ledger = it->second;
  auto entry = ledger.lower_bound(key_prefix);
  while (entry != ledger.end() && entry->first.compare(0, key_prefix.size(), key_prefix) == 0) {
    entry = ledger.erase(entry);
  }
  if (ledger.empty()) copied_objects_.erase(it);
}

size_t CdwServer::CopyLedgerSize(const std::string& table_name) const {
  common::MutexLock lock(&mu_);
  auto it = copied_objects_.find(table_name);
  return it == copied_objects_.end() ? 0 : it->second.size();
}

uint64_t CdwServer::statements_executed() const {
  common::MutexLock lock(&mu_);
  return statements_executed_;
}

}  // namespace hyperq::cdw

/// End-to-end benchmark harness: stands up the in-process stack (object
/// store + CDW + Hyper-Q node), drives one named workload through the public
/// client APIs for a fixed time, checks every operation's output, and prints
/// the metrics as one JSON object on the last line of stdout.
///
///   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
///                     --out DIR
///
/// --trace 0 runs one untraced stack (observability off) and reports the
/// end-to-end metrics. --trace 1 runs an untraced and a traced stack side by
/// side, alternating operations between them, and reports the per-layer
/// metrics of the traced one plus the tracing overhead between the two; it
/// also writes every traced job's span tree to DIR. Workloads, metrics and
/// their units are documented in perfbench/README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdw/cdw_server.h"
#include "cloudstore/bulk_loader.h"
#include "cloudstore/object_store.h"
#include "common/random.h"
#include "etlscript/etl_client.h"
#include "hyperq/server.h"
#include "metrics.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/stream_client.h"
#include "workload/dataset.h"

namespace perfbench {
namespace {

using namespace hyperq;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using common::Status;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Setup or harness failure: the run has no result to print.
[[noreturn]] void Die(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

void CheckOk(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// ---------------------------------------------------------------------------
// Order-independent content digest: row count plus the wrapping sum of each
// row's FNV-1a hash over its canonical '|'-joined text. A generator line and
// the target row it becomes hash alike, so the check needs no sort.

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

uint64_t Fnv1a(std::string_view text, uint64_t h = kFnvOffset) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void Add(std::string_view line) { AddHash(Fnv1a(line)); }
  void Remove(std::string_view line) {
    --rows;
    sum -= Fnv1a(line);
  }
  void AddHash(uint64_t hash) {
    ++rows;
    sum += hash;
  }
  bool operator==(const Digest& other) const { return rows == other.rows && sum == other.sum; }
};

/// Hash of a row's canonical text: its values joined by '|', NULL empty,
/// strings raw, other types in Value::ToString form (dates ISO).
uint64_t RowHash(const types::Row& row) {
  uint64_t h = kFnvOffset;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i != 0) h = Fnv1a("|", h);
    const types::Value& v = row[i];
    if (v.is_null()) continue;
    h = v.is_string() ? Fnv1a(v.string_value(), h) : Fnv1a(v.ToString(), h);
  }
  return h;
}

std::string DescribeDigest(const Digest& d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 " rows/%016" PRIx64, d.rows, d.sum);
  return buf;
}

// ---------------------------------------------------------------------------
// The harness's own spans (traced lanes only), around the calls it makes.

struct HarnessSpan {
  std::string job_id;
  std::string name;
  int64_t start_us = 0;  ///< relative to the harness epoch
  int64_t end_us = 0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  void Record(const char* name, Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return;
    pending_.push_back({"", name, Micros(start), Micros(end)});
  }
  /// Files the spans recorded since the last call under `job_id`.
  void Assign(const std::string& job_id) {
    for (auto& span : pending_) {
      span.job_id = job_id;
      spans_.push_back(std::move(span));
    }
    pending_.clear();
  }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<HarnessSpan>& spans() const { return spans_; }

 private:
  int64_t Micros(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<HarnessSpan> pending_;
  std::vector<HarnessSpan> spans_;
};

// ---------------------------------------------------------------------------
// One in-process stack: object store + CDW + Hyper-Q node. A traced stack
// hands its own registry and tracer to all three; an untraced one runs with
// observability off.

/// Node and warehouse options of a workload. Every node runs 2 converter and
/// 2 writer threads, so with the client sessions the busy threads stay near
/// the 4 cores the workloads are sized for; staging is CSV unless a workload
/// picks HQB1.
struct StackConfig {
  StackConfig() {
    hyperq.converter_workers = 2;
    hyperq.file_writers = 2;
    hyperq.staging_format = cdw::StagingFormat::kCsv;
  }
  core::HyperQOptions hyperq;
  cdw::CdwServerOptions cdw;
};

struct Stack {
  Stack(StackConfig config, bool traced, const std::string& dir) : work_dir(dir) {
    fs::remove_all(work_dir);
    fs::create_directories(work_dir);
    if (traced) {
      registry = std::make_unique<obs::MetricsRegistry>();
      tracer = std::make_unique<obs::Tracer>();
    }
    cloud::ObjectStoreOptions store_options;
    store_options.metrics = registry.get();
    store = std::make_unique<cloud::ObjectStore>(store_options);
    config.cdw.metrics = registry.get();
    cdw = std::make_unique<cdw::CdwServer>(store.get(), config.cdw);
    config.hyperq.enable_observability = traced;
    config.hyperq.metrics = registry.get();
    config.hyperq.tracer = tracer.get();
    config.hyperq.local_staging_dir = work_dir + "/staging";
    node = std::make_unique<core::HyperQServer>(cdw.get(), store.get(), config.hyperq);
    node->Start();
  }
  ~Stack() {
    node->Stop();
    node.reset();
    std::error_code ignored;
    fs::remove_all(work_dir, ignored);
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::function<common::Result<std::shared_ptr<net::Transport>>(const std::string&)>
  Connector() {
    return [this](const std::string&) -> common::Result<std::shared_ptr<net::Transport>> {
      auto transport = node->Connect();
      if (!transport) return Status::IOError("node down");
      return transport;
    };
  }

  bool traced() const { return registry != nullptr; }

  std::string work_dir;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<cloud::ObjectStore> store;
  std::unique_ptr<cdw::CdwServer> cdw;
  std::unique_ptr<core::HyperQServer> node;
};

// ---------------------------------------------------------------------------
// Lanes: one stack plus the client state that drives it.

/// One timed operation: an import job, or one stream micro-batch.
struct Op {
  double visible_s = 0;  ///< first row sent -> rows visible (load report / commit ack)
  double wall_s = 0;     ///< every timed client call of the operation
  double send_s = 0;     ///< stream: SendLines calls
  double commit_s = 0;   ///< stream: the Commit call
  double inside_s = 0;   ///< traced stream: put + COPY + statement seconds in the op
  uint64_t rows = 0;
};

/// Per-job records a traced lane keeps for attribution.
struct TracedJob {
  std::string job_id;
  core::PhaseTimings timings;
  core::AcquisitionStats stats;
  core::DmlApplyResult dml;
  legacy::JobReportBody report;
  stream::StreamStats stream;
  bool is_stream = false;
};

class Lane {
 public:
  Lane(std::unique_ptr<Stack> stack, Clock::time_point epoch)
      : stack_(std::move(stack)), spans_(epoch) {}
  virtual ~Lane() = default;

  /// Untimed: restores the target, runs the timed calls, checks the output.
  virtual common::Result<Op> RunOnce() = 0;
  /// Ends open sessions and runs their end-of-session checks.
  virtual Status Finish() { return Status::OK(); }

  /// Begins the timed interval: from here on ops, registry deltas and
  /// spans count.
  void StartTimed() {
    timed_ = true;
    spans_.set_enabled(stack_->traced());
  }

  core::HyperQServer& node() const { return *stack_->node; }
  const std::vector<Op>& ops() const { return ops_; }
  const std::vector<TracedJob>& jobs() const { return jobs_; }
  const obs::MetricsSnapshot& delta() const { return delta_; }
  const SpanLog& spans() const { return spans_; }

  common::Status Step() {
    auto op = RunOnce();
    if (!op.ok()) return op.status();
    if (timed_) ops_.push_back(*op);
    return Status::OK();
  }

 protected:
  obs::MetricsSnapshot Snap() const {
    return stack_->traced() ? stack_->node->MetricsSnapshot() : obs::MetricsSnapshot{};
  }
  void AddTimedDelta(const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after) {
    if (timed_ && stack_->traced()) AddDelta(before, after, &delta_);
  }
  bool collecting() const { return timed_ && stack_->traced(); }

  /// Runs one statement the harness itself issues (reset / check).
  common::Result<cdw::ExecResult> Exec(const char* span, const std::string& sql) {
    auto start = Clock::now();
    auto result = stack_->cdw->ExecuteSql(sql);
    spans_.Record(span, start, Clock::now());
    if (!result.ok()) return Status::Invalid(sql + ": " + result.status().ToString());
    return result;
  }

  common::Result<Digest> TableDigest(const std::string& table) {
    HQ_ASSIGN_OR_RETURN(cdw::ExecResult result, Exec("check", "SELECT * FROM " + table));
    Digest digest;
    for (const auto& row : result.rows) digest.AddHash(RowHash(row));
    return digest;
  }

  std::unique_ptr<Stack> stack_;
  SpanLog spans_;
  bool timed_ = false;
  std::vector<Op> ops_;
  std::vector<TracedJob> jobs_;
  obs::MetricsSnapshot delta_;
};

// ---- batch import lanes ----------------------------------------------------

/// One batch workload: an unmodified ETL script that runs a single import
/// job, the statements that restore its target beforehand, and what the job
/// must leave behind.
struct BatchSpec {
  std::string script;
  std::vector<std::string> reset;
  std::string target;
  uint64_t rows = 0;
  uint64_t expect_inserted = 0;
  uint64_t expect_updated = 0;
  uint64_t expect_et = 0;
  Digest expect_target;
  size_t chunk_rows = 1000;
};

class BatchLane : public Lane {
 public:
  BatchLane(std::unique_ptr<Stack> stack, Clock::time_point epoch, const BatchSpec* spec)
      : Lane(std::move(stack), epoch), spec_(spec) {}

  common::Result<Op> RunOnce() override {
    for (const auto& sql : spec_->reset) HQ_RETURN_NOT_OK(Exec("reset", sql).status());

    etlscript::EtlClientOptions options;
    options.connector = stack_->Connector();
    options.chunk_rows = spec_->chunk_rows;
    options.working_dir = stack_->work_dir;
    etlscript::EtlClient client(options);

    obs::MetricsSnapshot before = Snap();
    auto start = Clock::now();
    auto run = client.RunScript(spec_->script);
    auto end = Clock::now();
    obs::MetricsSnapshot after = Snap();
    spans_.Record("RunScript", start, end);
    if (!run.ok()) return Status::Invalid("import job failed: " + run.status().ToString());
    if (run->imports.size() != 1) return Status::Invalid("script ran no import job");
    const etlscript::ImportJobSummary& job = run->imports[0];
    spans_.Assign(job.job_id);
    AddTimedDelta(before, after);

    const legacy::JobReportBody& r = job.report;
    if (job.rows_sent != spec_->rows || r.rows_inserted != spec_->expect_inserted ||
        r.rows_updated != spec_->expect_updated || r.et_errors != spec_->expect_et ||
        r.uv_errors != 0) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "job %s report: sent %" PRIu64 " inserted %" PRIu64 " updated %" PRIu64
                    " et %" PRIu64 " uv %" PRIu64 "; expected sent %" PRIu64
                    " inserted %" PRIu64 " updated %" PRIu64 " et %" PRIu64 " uv 0",
                    job.job_id.c_str(), job.rows_sent, r.rows_inserted, r.rows_updated,
                    r.et_errors, r.uv_errors, spec_->rows, spec_->expect_inserted,
                    spec_->expect_updated, spec_->expect_et);
      return Status::Invalid(buf);
    }
    HQ_ASSIGN_OR_RETURN(Digest got, TableDigest(spec_->target));
    spans_.Assign(job.job_id);
    if (!(got == spec_->expect_target)) {
      return Status::Invalid("job " + job.job_id + " target " + spec_->target + " holds " +
                             DescribeDigest(got) + ", expected " +
                             DescribeDigest(spec_->expect_target));
    }

    if (collecting()) {
      TracedJob traced;
      traced.job_id = job.job_id;
      traced.report = r;
      auto timings = stack_->node->JobTimings(job.job_id);
      auto stats = stack_->node->JobStats(job.job_id);
      auto dml = stack_->node->JobDmlResult(job.job_id);
      if (!timings.ok() || !stats.ok() || !dml.ok()) {
        return Status::Invalid("job " + job.job_id + " instrumentation unavailable");
      }
      traced.timings = *timings;
      traced.stats = *stats;
      traced.dml = *dml;
      jobs_.push_back(std::move(traced));
    }

    Op op;
    op.visible_s = job.acquisition_seconds + job.application_seconds;
    op.wall_s = Seconds(start, end);
    op.rows = job.rows_sent;
    return op;
  }

 private:
  const BatchSpec* spec_;
};

// ---- streaming lane --------------------------------------------------------

/// Pre-formatted micro-batches, cycled through by the stream lane. The lane
/// empties the target after checking each batch, so a batch may be re-sent.
struct StreamSpec {
  struct Batch {
    std::vector<std::vector<std::string>> chunks;
    Digest digest;
    uint64_t rows = 0;
  };
  std::vector<Batch> batches;
  legacy::BeginStreamBody begin;
  std::string target;
  /// A traced lane starts a new session (so a new trace) after this many
  /// batches, keeping every trace under its span cap.
  uint64_t traced_session_batches = 200;
};

class StreamLane : public Lane {
 public:
  StreamLane(std::unique_ptr<Stack> stack, Clock::time_point epoch, const StreamSpec* spec)
      : Lane(std::move(stack), epoch), spec_(spec) {}

  common::Result<Op> RunOnce() override {
    if (client_ != nullptr && stack_->traced() &&
        (session_batches_ == spec_->traced_session_batches || (timed_ && !session_timed_))) {
      HQ_RETURN_NOT_OK(Close());
    }
    if (client_ == nullptr) HQ_RETURN_NOT_OK(Open());

    const StreamSpec::Batch& batch = spec_->batches[next_batch_++ % spec_->batches.size()];
    Op op;
    obs::MetricsSnapshot before = Snap();
    auto first = Clock::now();
    for (const auto& lines : batch.chunks) {
      auto start = Clock::now();
      Status sent = client_->SendLines(lines);
      auto end = Clock::now();
      spans_.Record("SendLines", start, end);
      if (!sent.ok()) return Status::Invalid("SendLines: " + sent.ToString());
      op.send_s += Seconds(start, end);
    }
    auto start = Clock::now();
    auto committed = client_->Commit(++watermark_ * 1000);
    auto end = Clock::now();
    spans_.Record("Commit", start, end);
    obs::MetricsSnapshot after = Snap();
    if (!committed.ok()) return Status::Invalid("Commit: " + committed.status().ToString());
    op.commit_s = Seconds(start, end);
    op.visible_s = Seconds(first, end);
    op.wall_s = op.send_s + op.commit_s;
    op.rows = batch.rows;
    ++session_batches_;
    rows_sent_ += batch.rows;
    if (collecting()) {
      obs::MetricsSnapshot delta;
      AddDelta(before, after, &delta);
      op.inside_s = delta.histograms["objstore_put_seconds"].sum +
                    delta.histograms["cdw_copy_seconds"].sum +
                    delta.histograms["cdw_statement_seconds"].sum;
      AddTimedDelta(before, after);
    }

    if (committed->rows_in_batch != batch.rows || committed->et_errors != 0) {
      return Status::Invalid("batch " + std::to_string(committed->batch_seq) + " applied " +
                             std::to_string(committed->rows_in_batch) + " rows with " +
                             std::to_string(committed->et_errors) + " errors, expected " +
                             std::to_string(batch.rows) + " and 0");
    }
    HQ_ASSIGN_OR_RETURN(Digest got, TableDigest(spec_->target));
    HQ_RETURN_NOT_OK(Exec("reset", "DELETE FROM " + spec_->target).status());
    spans_.Assign(job_id_);
    if (!(got == batch.digest)) {
      return Status::Invalid("batch " + std::to_string(committed->batch_seq) + " target holds " +
                             DescribeDigest(got) + ", expected " + DescribeDigest(batch.digest));
    }
    return op;
  }

  Status Finish() override { return client_ == nullptr ? Status::OK() : Close(); }

 private:
  Status Open() {
    stream::StreamClientOptions options;
    options.connector = stack_->Connector();
    client_ = std::make_unique<stream::StreamClient>(std::move(options));
    legacy::BeginStreamBody begin = spec_->begin;
    job_id_ = begin.job_id + "_" + std::to_string(++sessions_);
    begin.job_id = job_id_;
    HQ_RETURN_NOT_OK(client_->Begin(begin));
    session_batches_ = 0;
    rows_sent_ = 0;
    session_timed_ = timed_;
    if (collecting()) {
      TracedJob traced;
      traced.job_id = job_id_;
      traced.is_stream = true;
      jobs_.push_back(std::move(traced));
    }
    return Status::OK();
  }

  /// Ends the session and checks its exactly-once bookkeeping.
  Status Close() {
    auto report = client_->End();
    Status logoff = client_->Logoff();
    client_.reset();
    if (!report.ok()) return Status::Invalid("End: " + report.status().ToString());
    HQ_RETURN_NOT_OK(logoff);
    auto stats = stack_->node->StreamJobStats(job_id_);
    if (!stats.ok()) return Status::Invalid("stream stats: " + stats.status().ToString());
    if (report->rows_inserted != rows_sent_ || report->et_errors != 0 ||
        stats->commit_replays != 0 || stats->commit_retries != 0) {
      return Status::Invalid("stream " + job_id_ + " inserted " +
                             std::to_string(report->rows_inserted) + " of " +
                             std::to_string(rows_sent_) + " rows, " +
                             std::to_string(report->et_errors) + " errors, " +
                             std::to_string(stats->commit_replays) + " replays, " +
                             std::to_string(stats->commit_retries) + " retries");
    }
    if (!jobs_.empty() && jobs_.back().job_id == job_id_) jobs_.back().stream = *stats;
    return Status::OK();
  }

  const StreamSpec* spec_;
  std::unique_ptr<stream::StreamClient> client_;
  std::string job_id_;
  uint64_t sessions_ = 0;
  uint64_t session_batches_ = 0;
  uint64_t rows_sent_ = 0;
  uint64_t next_batch_ = 0;
  uint64_t watermark_ = 0;
  bool session_timed_ = false;
};

// ---------------------------------------------------------------------------
// Workloads. Every input is generated here, from the seed, before timing.

struct Workload {
  StackConfig config;
  BatchSpec batch;
  StreamSpec stream;
  bool is_stream = false;
  int warmup_ops = 1;
  /// peak_rss_mb is read once the untraced lane has run this many timed
  /// operations (the run goes on past --seconds until it has), so the
  /// reading does not grow with how many operations a fast build fits in.
  size_t rss_ops = 8;
  /// Statements run once on a fresh stack before its warm-up (preload).
  std::vector<std::string> preload;
};

/// import_csv: the fig7 customer feed (~500 B rows) through the unmodified
/// script, CSV staging, INSERT...SELECT with TRIM/CAST...FORMAT.
Workload MakeImportCsv(uint64_t seed, const std::string& dir) {
  Workload w;
  workload::DatasetSpec spec;
  spec.rows = 50000;
  spec.row_bytes = 500;
  spec.seed = seed;
  workload::CustomerDataset dataset(spec);
  const std::string file = dir + "/import_csv.txt";
  CheckOk(dataset.WriteDataFile(file), "write " + file);
  BatchSpec& b = w.batch;
  b.target = "BENCH.CUSTOMER";
  b.script = dataset.MakeImportScript("hq", b.target, file, 4);
  b.reset = {"DROP TABLE IF EXISTS " + b.target, dataset.MakeTargetDdl(b.target)};
  b.rows = spec.rows;
  b.expect_inserted = spec.rows;
  for (uint64_t i = 0; i < spec.rows; ++i) b.expect_target.Add(dataset.MakeLine(i));
  b.chunk_rows = 1000;
  return w;
}

/// import_errors: fig11-style loads with 2% malformed JOIN_DATE and a 250 us
/// per-statement round trip; the adaptive split-and-retry handler works.
/// Exactly one row in every 50 is malformed, at a seeded offset: with the
/// dataset's per-row coin flips the error count, and with it the number of
/// split statements, would swing by a third from seed to seed.
Workload MakeImportErrors(uint64_t seed, const std::string& dir) {
  constexpr uint64_t kRows = 2000;
  constexpr uint64_t kBlock = 50;
  Workload w;
  w.config.cdw.statement_startup_micros = 250;
  w.config.cdw.copy_startup_micros = 250;
  workload::DatasetSpec spec;
  spec.rows = kRows;
  spec.row_bytes = 200;
  spec.seed = seed;
  workload::CustomerDataset dataset(spec);
  common::Random rng(seed * 0x9E3779B97F4A7C15ULL + 202);
  BatchSpec& b = w.batch;
  std::string data;
  for (uint64_t block = 0; block < kRows; block += kBlock) {
    uint64_t bad = block + rng.NextBounded(kBlock);
    for (uint64_t i = block; i < block + kBlock; ++i) {
      std::string line = dataset.MakeLine(i);
      if (i == bad) {
        // JOIN_DATE is the third field: replace it with "xx" + 8 alnum.
        size_t date = line.find('|', line.find('|') + 1) + 1;
        line.replace(date, 10, "xx" + rng.NextAlnum(8));
        ++b.expect_et;
      } else {
        b.expect_target.Add(line);
      }
      data += line + "\n";
    }
  }
  const std::string file = dir + "/import_errors.txt";
  CheckOk(cloud::WriteFileBytes(file, common::Slice(std::string_view(data))), "write " + file);
  b.target = "BENCH.CUSTOMER";
  b.script = dataset.MakeImportScript("hq", b.target, file, 2, 100);
  b.reset = {"DROP TABLE IF EXISTS " + b.target, dataset.MakeTargetDdl(b.target)};
  b.rows = kRows;
  b.expect_inserted = kRows - b.expect_et;
  b.chunk_rows = 500;
  return w;
}

/// upsert_merge: the legacy UPDATE ... ELSE INSERT (a MERGE) into a keyed
/// target restored before every job; half the input keys exist.
Workload MakeUpsertMerge(uint64_t seed, const std::string& dir) {
  constexpr uint64_t kTargetRows = 1500;
  constexpr uint64_t kInputRows = 1500;
  Workload w;
  common::Random rng(seed * 0x9E3779B97F4A7C15ULL + 101);
  auto key = [](uint64_t k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "K%09" PRIu64, k);
    return std::string(buf);
  };
  const std::string columns =
      " (CUST_ID VARCHAR(12) NOT NULL, CUST_NAME VARCHAR(24), BALANCE INTEGER)"
      " UNIQUE PRIMARY INDEX (CUST_ID)";
  BatchSpec& b = w.batch;
  b.target = "UPS.CUSTOMER";
  w.preload = {"CREATE MULTISET TABLE UPS.BASE" + columns,
               "CREATE MULTISET TABLE " + b.target + columns};
  std::vector<std::string> base_lines;
  std::string insert;
  for (uint64_t k = 1; k <= kTargetRows; ++k) {
    std::string name = rng.NextAlnum(16);
    int64_t balance = rng.NextInRange(0, 1000000);
    base_lines.push_back(key(k) + "|" + name + "|" + std::to_string(balance));
    insert += insert.empty() ? "INSERT INTO UPS.BASE VALUES " : ", ";
    insert += "('" + key(k) + "', '" + name + "', " + std::to_string(balance) + ")";
    if (k % 500 == 0 || k == kTargetRows) {
      w.preload.push_back(insert);
      insert.clear();
    }
  }
  b.reset = {"DELETE FROM " + b.target, "INSERT INTO " + b.target + " SELECT * FROM UPS.BASE"};

  // Half the input updates a random distinct subset of existing keys, half
  // inserts new ones; the two are interleaved in a seeded order.
  std::vector<uint64_t> existing(kTargetRows);
  for (uint64_t k = 0; k < kTargetRows; ++k) existing[k] = k + 1;
  for (uint64_t k = kTargetRows - 1; k > 0; --k) {
    std::swap(existing[k], existing[rng.NextBounded(k + 1)]);
  }
  std::vector<uint64_t> keys(existing.begin(), existing.begin() + kInputRows / 2);
  for (uint64_t k = 0; k < kInputRows / 2; ++k) keys.push_back(kTargetRows + 1 + k);
  for (uint64_t k = keys.size() - 1; k > 0; --k) std::swap(keys[k], keys[rng.NextBounded(k + 1)]);

  for (const auto& line : base_lines) b.expect_target.Add(line);
  std::string data;
  for (uint64_t k : keys) {
    std::string line = key(k) + "|" + rng.NextAlnum(16) + "|" +
                       std::to_string(rng.NextInRange(0, 1000000));
    data += line + "\n";
    if (k <= kTargetRows) b.expect_target.Remove(base_lines[k - 1]);
    b.expect_target.Add(line);
  }
  const std::string file = dir + "/upsert_merge.txt";
  CheckOk(cloud::WriteFileBytes(file, common::Slice(std::string_view(data))), "write " + file);

  b.script = ".logon hq/etl_user,etl_pass;\n.sessions 2;\n.layout UpsLayout;\n"
             ".field CUST_ID VARCHAR(12);\n.field CUST_NAME VARCHAR(24);\n"
             ".field BALANCE VARCHAR(12);\n"
             ".begin import tables " + b.target + " errortables UPS.CUSTOMER_ET UPS.CUSTOMER_UV;\n"
             ".dml label Upsert;\n"
             "UPDATE " + b.target + " SET CUST_NAME = TRIM(:CUST_NAME), "
             "BALANCE = CAST(:BALANCE AS INTEGER) WHERE CUST_ID = :CUST_ID "
             "ELSE INSERT VALUES (:CUST_ID, TRIM(:CUST_NAME), CAST(:BALANCE AS INTEGER));\n"
             ".import infile " + file + " format vartext '|' layout UpsLayout apply Upsert;\n"
             ".end load;\n.logoff;\n";
  b.rows = kInputRows;
  b.expect_updated = kInputRows / 2;
  b.expect_inserted = kInputRows - kInputRows / 2;
  b.chunk_rows = 500;
  return w;
}

/// stream_binary: one closed-loop streaming session, HQB1 binary staging,
/// plain-insert DML, many small micro-batches of narrow rows.
Workload MakeStreamBinary(uint64_t seed) {
  constexpr uint64_t kBatches = 64;
  constexpr uint64_t kBatchRows = 2000;
  constexpr uint64_t kChunkRows = 500;
  Workload w;
  w.is_stream = true;
  w.warmup_ops = 20;
  w.rss_ops = 500;
  w.config.hyperq.staging_format = cdw::StagingFormat::kBinary;
  workload::DatasetSpec spec;
  spec.rows = kBatches * kBatchRows;
  spec.row_bytes = 40;  // key, name and date only
  spec.seed = seed;
  workload::CustomerDataset dataset(spec);
  StreamSpec& s = w.stream;
  s.target = "PROD.CUSTOMER";
  w.preload = {dataset.MakeTargetDdl(s.target)};
  for (uint64_t b = 0; b < kBatches; ++b) {
    StreamSpec::Batch batch;
    for (uint64_t r = 0; r < kBatchRows; ++r) {
      if (r % kChunkRows == 0) batch.chunks.emplace_back();
      std::string line = dataset.MakeLine(b * kBatchRows + r);
      batch.digest.Add(line);
      batch.chunks.back().push_back(std::move(line));
    }
    batch.rows = kBatchRows;
    s.batches.push_back(std::move(batch));
  }
  s.begin.job_id = "perfbench_stream";
  s.begin.target_table = s.target;
  s.begin.format = legacy::DataFormat::kVartext;
  s.begin.delimiter = '|';
  s.begin.layout = dataset.MakeLayout();
  s.begin.dml_label = "Ins";
  s.begin.dml_sql = dataset.MakeInsertDml(s.target);
  return w;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || !have_seed || !(args.seconds > 0) ||
      args.out_dir.empty()) {
    Die("usage: perfbench_harness --workload NAME --seed N --seconds S --trace 0|1 --out DIR");
  }
  return args;
}

struct Env {
  Workload workload;
  std::vector<std::unique_ptr<Lane>> lanes;  ///< [0] untraced, [1] traced (--trace 1)
};

/// Set-up as timed by setup_s: input generation, stack construction, target
/// preload and warm-up operations.
std::unique_ptr<Env> Setup(const Args& args, const std::string& dir, Clock::time_point epoch) {
  auto env = std::make_unique<Env>();
  fs::remove_all(dir);
  fs::create_directories(dir);
  if (args.workload == "import_csv") {
    env->workload = MakeImportCsv(args.seed, dir);
  } else if (args.workload == "import_errors") {
    env->workload = MakeImportErrors(args.seed, dir);
  } else if (args.workload == "upsert_merge") {
    env->workload = MakeUpsertMerge(args.seed, dir);
  } else if (args.workload == "stream_binary") {
    env->workload = MakeStreamBinary(args.seed);
  } else {
    Die("unknown workload " + args.workload);
  }
  const Workload& w = env->workload;
  for (int traced = 0; traced <= (args.trace ? 1 : 0); ++traced) {
    auto stack =
        std::make_unique<Stack>(w.config, traced == 1, dir + "/stack" + std::to_string(traced));
    for (const auto& sql : w.preload) {
      CheckOk(stack->cdw->ExecuteSql(sql).status(), "preload");
    }
    std::unique_ptr<Lane> lane;
    if (w.is_stream) {
      lane = std::make_unique<StreamLane>(std::move(stack), epoch, &w.stream);
    } else {
      lane = std::make_unique<BatchLane>(std::move(stack), epoch, &w.batch);
    }
    for (int i = 0; i < w.warmup_ops; ++i) CheckOk(lane->Step(), "warm-up");
    env->lanes.push_back(std::move(lane));
  }
  return env;
}

// ---------------------------------------------------------------------------
// Reporting.

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const auto& r : rows_) {
      std::printf("  %-34s %16.6f %s\n", r.name.c_str(), r.value, r.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < rows_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.12g", rows_[i].value);
      if (i != 0) json += ", ";
      json += "\"" + rows_[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
              rows_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<double> Field(const std::vector<Op>& ops, double Op::*field) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const auto& op : ops) out.push_back(op.*field);
  return out;
}

void PrintSummary(const char* label, const Summary& s, double scale, const char* unit) {
  std::printf("  %-34s p50 %.3f %s", label, s.median * scale, unit);
  if (s.tail_q > 0) {
    std::printf(", p%g %.3f %s", s.tail_q * 100, s.tail * scale, unit);
  } else {
    std::printf(", no tail percentile has %zu samples beyond it", kTailSupport);
  }
  std::printf(" (n=%zu)\n", s.count);
}

void ReportEndToEnd(const Lane& lane, const std::vector<double>& setup_s, double peak_rss_mb,
                    Report* report) {
  const std::vector<Op>& ops = lane.ops();
  Summary visible = Summarize(Field(ops, &Op::visible_s));
  double rows = 0;
  double wall = 0;
  for (const auto& op : ops) {
    rows += static_cast<double>(op.rows);
    wall += op.wall_s;
  }
  PrintSummary("job (visible) latency", visible, 1e3, "ms");
  report->Add("setup_s", Summarize(setup_s).median, "s");
  report->Add("job_p50_s", visible.median, "s");
  report->Add("rows_per_s", Ratio(rows, wall), "rows/s");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
}

/// Writes every traced job's span tree with the harness's spans filed under
/// the same job id, plus the registry delta of the timed operations.
bool WriteTraceDump(const Lane& traced, const std::vector<std::shared_ptr<obs::Trace>>& traces,
                    const std::string& path) {
  std::string dump = "{\"jobs\": [";
  for (size_t j = 0; j < traces.size(); ++j) {
    const obs::Trace& trace = *traces[j];
    dump += j == 0 ? "\n" : ",\n";
    dump += "{\"job_id\": \"" + trace.job_id() + "\", \"dropped\": " +
            std::to_string(trace.dropped()) + ", \"program\": " + trace.ToJson() +
            ", \"harness\": [";
    bool first = true;
    for (const auto& span : traced.spans().spans()) {
      if (span.job_id != trace.job_id()) continue;
      dump += first ? "" : ", ";
      dump += "{\"name\": \"" + span.name + "\", \"start_us\": " + std::to_string(span.start_us) +
              ", \"end_us\": " + std::to_string(span.end_us) + "}";
      first = false;
    }
    dump += "]}";
  }
  dump += "\n], \"registry_delta\": " + obs::ToJson(traced.delta()) + "}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << dump;
  if (!file) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("  span trees written to %s\n", path.c_str());
  return true;
}

/// Per-layer metrics of the traced lane. Counters and times are deltas over
/// the timed operations divided by their number ("per op": per import job
/// or per micro-batch), so they compare across runs of different length.
bool ReportLayers(const Lane& plain, const Lane& traced, const std::string& trace_path,
                  Report* report) {
  const std::vector<Op>& ops = traced.ops();
  const double n = static_cast<double>(ops.size());
  const obs::MetricsSnapshot& d = traced.delta();
  auto hist = [&d](const char* name) {
    auto it = d.histograms.find(name);
    return it == d.histograms.end() ? obs::HistogramSnapshot{} : it->second;
  };
  auto counter = [&d](const char* name) {
    auto it = d.counters.find(name);
    return it == d.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto gauge_prefix = [&d](const std::string& prefix) {
    double total = 0;
    for (const auto& [name, value] : d.gauges) {
      if (name.rfind(prefix, 0) == 0) total += static_cast<double>(value);
    }
    return total;
  };
  double rows = 0;
  for (const auto& op : ops) rows += static_cast<double>(op.rows);

  // Job records and span trees.
  double acq = 0, app = 0, unattributed = 0, statements = 0, et_rows = 0;
  double bytes_staged = 0, rows_staged = 0, batch_jobs = 0;
  double replays = 0, pruned = 0, stream_batches = 0, spans = 0;
  uint64_t dropped = 0;
  std::map<std::string, double> self_by_phase;
  std::vector<std::shared_ptr<obs::Trace>> traces;
  for (const TracedJob& job : traced.jobs()) {
    auto trace = traced.node().JobTrace(job.job_id);
    if (!trace.ok()) {
      std::fprintf(stderr, "perfbench: no trace for %s\n", job.job_id.c_str());
      return false;
    }
    traces.push_back(*trace);
    std::vector<obs::SpanRecord> records = (*trace)->spans();
    dropped += (*trace)->dropped();
    spans += static_cast<double>(records.size());
    std::map<uint64_t, int64_t> self = SelfMicros(records);
    for (const auto& span : records) {
      auto it = self.find(span.id);
      if (it != self.end() && span.parent_id != 0) {
        self_by_phase[obs::PhaseName(span.phase)] += static_cast<double>(it->second) / 1e6;
      }
    }
    if (job.is_stream) {
      replays += static_cast<double>(job.stream.commit_replays + job.stream.commit_retries);
      pruned += static_cast<double>(job.stream.staging_rows_pruned);
      stream_batches += static_cast<double>(job.stream.batches_committed);
    } else {
      batch_jobs += 1;
      acq += job.timings.acquisition_seconds;
      app += job.timings.application_seconds;
      auto root = self.find(traces.back()->root_id());
      if (root != self.end()) unattributed += static_cast<double>(root->second) / 1e6;
      statements += static_cast<double>(job.dml.statements_issued);
      et_rows += static_cast<double>(job.report.et_errors);
      bytes_staged += static_cast<double>(job.stats.bytes_staged);
      rows_staged += static_cast<double>(job.stats.rows_staged);
    }
  }
  if (!WriteTraceDump(traced, traces, trace_path)) return false;
  std::printf("  self time per op by phase (span minus its children's union):\n");
  for (const auto& [phase, seconds] : self_by_phase) {
    std::printf("    %-16s %10.6f s/op\n", phase.c_str(), Ratio(seconds, n));
  }

  const bool stream = stream_batches > 0;
  Summary send = Summarize(Field(ops, &Op::send_s));
  Summary commit = Summarize(Field(ops, &Op::commit_s));
  std::vector<double> outside;
  for (const auto& op : ops) outside.push_back(op.commit_s - op.inside_s);
  if (stream) {
    PrintSummary("stream send", send, 1e3, "ms");
    PrintSummary("stream commit", commit, 1e3, "ms");
  }

  obs::HistogramSnapshot convert = hist("hyperq_convert_seconds");
  obs::HistogramSnapshot copy = hist("cdw_copy_seconds");
  obs::HistogramSnapshot stmt = hist("cdw_statement_seconds");
  double pool_hits = gauge_prefix("hyperq_buffer_pool_hits");
  double pool_misses = gauge_prefix("hyperq_buffer_pool_misses");
  double plain_p50 = Summarize(Field(plain.ops(), &Op::visible_s)).median;
  double traced_p50 = Summarize(Field(ops, &Op::visible_s)).median;

  report->Add("hyperq.decode_s", Ratio(hist("hyperq_parcel_decode_seconds").sum, n), "s/op");
  report->Add("hyperq.credit_wait_s", Ratio(hist("hyperq_credit_wait_seconds").sum, n), "s/op");
  report->Add("hyperq.convert_busy_s", Ratio(convert.sum, n), "s/op");
  report->Add("hyperq.convert_rows_per_s", Ratio(counter("hyperq_rows_staged_total"), convert.sum),
              "rows/s");
  report->Add("hyperq.write_busy_s", Ratio(hist("hyperq_file_write_seconds").sum, n), "s/op");
  report->Add("hyperq.staging_bytes_per_row", Ratio(bytes_staged, rows_staged), "B/row");
  report->Add("hyperq.acquisition_s", Ratio(acq, batch_jobs), "s/op");
  report->Add("hyperq.application_s", Ratio(app, batch_jobs), "s/op");
  report->Add("hyperq.unattributed_s", Ratio(unattributed, batch_jobs), "s/op");
  report->Add("hyperq.apply_statements", Ratio(statements, batch_jobs), "count/op");
  report->Add("hyperq.et_rows", Ratio(et_rows, batch_jobs), "count/op");
  report->Add("hyperq.statements_per_error", Ratio(statements, et_rows), "ratio");
  report->Add("hyperq.retry_attempts", gauge_prefix("hyperq_retry_attempts_total"), "count");
  report->Add("stream.send_p50_ms", stream ? send.median * 1e3 : 0, "ms");
  report->Add("stream.commit_p50_ms", stream ? commit.median * 1e3 : 0, "ms");
  report->Add("stream.commit_unattributed_ms", stream ? Summarize(outside).median * 1e3 : 0,
              "ms");
  report->Add("stream.commit_replays", replays, "count");
  report->Add("stream.staging_rows_pruned", Ratio(pruned, stream_batches), "rows/op");
  report->Add("cloudstore.put_requests", Ratio(counter("objstore_put_requests_total"), n),
              "count/op");
  report->Add("cloudstore.put_bytes", Ratio(counter("objstore_bytes_uploaded_total"), n), "B/op");
  report->Add("cloudstore.put_s", Ratio(hist("objstore_put_seconds").sum, n), "s/op");
  report->Add("cloudstore.get_requests", Ratio(counter("objstore_get_requests_total"), n),
              "count/op");
  report->Add("cloudstore.get_s", Ratio(hist("objstore_get_seconds").sum, n), "s/op");
  report->Add("cdw.copies", Ratio(counter("cdw_copies_total"), n), "count/op");
  report->Add("cdw.copy_s", Ratio(copy.sum, n), "s/op");
  report->Add("cdw.copy_rows_per_s", Ratio(counter("cdw_copy_rows_total"), copy.sum), "rows/s");
  report->Add("cdw.statements", Ratio(counter("cdw_statements_total"), n), "count/op");
  report->Add("cdw.statement_s", Ratio(stmt.sum, n), "s/op");
  report->Add("cdw.statement_p50_ms", stmt.count > 0 ? stmt.p50() * 1e3 : 0, "ms");
  report->Add("cdw.apply_us_per_row", Ratio(stmt.sum * 1e6, rows), "us/row");
  report->Add("common.buffer_pool_hit_ratio", Ratio(pool_hits, pool_hits + pool_misses),
              "ratio");
  report->Add("common.inflight_peak_mb",
              static_cast<double>(traced.node().memory_tracker()->peak()) / (1024.0 * 1024.0),
              "MB");
  report->Add("obs.spans", Ratio(spans, batch_jobs + stream_batches), "count/op");
  report->Add("obs.spans_dropped", static_cast<double>(dropped), "count");
  report->Add("obs.trace_overhead", Ratio(traced_p50, plain_p50), "ratio");
  if (dropped > 0) {
    std::fprintf(stderr, "perfbench: traces dropped %" PRIu64 " spans; per-layer totals undercount\n",
                 dropped);
    return false;
  }
  return true;
}

/// The process's resident high-water mark. VmHWM belongs to the address
/// space exec created; getrusage's ru_maxrss would also count the parent's
/// pages copied by fork before exec (a Python runner adds ~4 MB).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const Clock::time_point epoch = Clock::now();
  const std::string work_dir =
      args.out_dir + "/work-" + args.workload + "-" + std::to_string(::getpid());

  // Set-up runs several times; setup_s is the median, the last one is kept.
  // A traced run reports no setup_s and sets up once.
  const int setup_rounds = args.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int round = 0; round < setup_rounds; ++round) {
    env.reset();
    auto start = Clock::now();
    env = Setup(args, work_dir, epoch);
    setup_s.push_back(Seconds(start, Clock::now()));
  }

  // Timed interval: closed loop, one operation at a time. With --trace 1
  // the untraced and traced lanes alternate, the order flipping every pair
  // so slow drift of the host biases neither.
  for (auto& lane : env->lanes) lane->StartTimed();
  const auto timed_start = Clock::now();
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  double peak_rss_mb = 0;
  bool need_rss = !args.trace;
  const Lane& plain = *env->lanes[0];
  const auto deadline = timed_start + std::chrono::duration<double>(args.seconds);
  for (uint64_t pair = 0;
       (Clock::now() < deadline || need_rss) && failures.empty(); ++pair) {
    for (size_t i = 0; i < env->lanes.size() && failures.empty(); ++i) {
      Lane& lane = *env->lanes[pair % 2 == 0 ? i : env->lanes.size() - 1 - i];
      ++attempted;
      Status st = lane.Step();
      if (!st.ok()) failures.push_back(st.ToString());
    }
    if (need_rss && plain.ops().size() >= env->workload.rss_ops) {
      peak_rss_mb = PeakRssMb();
      need_rss = false;
    }
  }
  for (auto& lane : env->lanes) {
    Status st = lane->Finish();
    if (!st.ok()) failures.push_back(st.ToString());
  }

  std::printf("perfbench %s seed %" PRIu64 " trace %d: %" PRIu64 " ops in %.1f s\n",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0, attempted,
              Seconds(timed_start, Clock::now()));
  for (const auto& f : failures) std::printf("  FAILED: %s\n", f.c_str());
  const uint64_t failed = failures.size();
  std::printf("  fail_ratio %.6f (%" PRIu64 " of %" PRIu64 " operations)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)), failed,
              attempted);

  Report report;
  bool ok = failures.empty();
  if (!args.trace) {
    ReportEndToEnd(plain, setup_s, peak_rss_mb, &report);
  } else {
    std::string trace_path =
        args.out_dir + "/trace-" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
    ok = ReportLayers(plain, *env->lanes[1], trace_path, &report) && ok;
  }
  report.Print(ok, attempted, failed);
  std::fflush(stdout);
  env.reset();
  fs::remove_all(work_dir);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

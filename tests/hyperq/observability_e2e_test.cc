#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "cdw/cdw_server.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/sync.h"
#include "cloudstore/bulk_loader.h"
#include "cloudstore/object_store.h"
#include "etlscript/etl_client.h"
#include "hyperq/server.h"
#include "obs/export.h"

namespace hyperq::core {
namespace {

/// Full-stack observability fixture: one shared MetricsRegistry spanning the
/// object store, the CDW and the Hyper-Q node, so a single snapshot shows the
/// whole load path (the deployment shape ISSUE/DESIGN describe).
class ObservabilityE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_dir_ = "/tmp/hq_obs_e2e." + std::to_string(::getpid());
    std::filesystem::remove_all(work_dir_);
    std::filesystem::create_directories(work_dir_);
  }

  void StartNode(HyperQOptions options = {}) {
    cloud::ObjectStoreOptions store_options;
    store_options.metrics = options.enable_observability ? &registry_ : nullptr;
    store_ = std::make_unique<cloud::ObjectStore>(store_options);
    cdw::CdwServerOptions cdw_options;
    cdw_options.metrics = options.enable_observability ? &registry_ : nullptr;
    cdw_ = std::make_unique<cdw::CdwServer>(store_.get(), cdw_options);
    options.local_staging_dir = work_dir_ + "/staging";
    if (options.enable_observability) {
      options.metrics = &registry_;
      options.tracer = &tracer_;
    }
    node_ = std::make_unique<HyperQServer>(cdw_.get(), store_.get(), options);
    node_->Start();
  }

  void TearDown() override {
    if (node_) node_->Stop();
  }

  /// Loads `rows` generated rows into a fresh PROD.CUSTOMER through `dml`
  /// (default: a plain insert). Every bad_date_every_-th row, when set, has a
  /// JOIN_DATE the DML cannot convert; script_settings_ goes before the load.
  common::Result<etlscript::RunResult> RunImport(int rows, const std::string& dml = kInsertDml) {
    std::string data;
    for (int i = 1; i <= rows; ++i) {
      const bool bad = bad_date_every_ > 0 && i % bad_date_every_ == 0;
      data += std::to_string(i) + "|Name" + std::to_string(i) +
              (bad ? "|2012-13-45\n" : "|2012-01-01\n");
    }
    auto w =
        cloud::WriteFileBytes(work_dir_ + "/input.txt", common::Slice(std::string_view(data)));
    if (!w.ok()) return w;
    etlscript::EtlClientOptions client_options;
    client_options.working_dir = work_dir_;
    client_options.chunk_rows = 100;
    client_options.connector =
        [this](const std::string&) -> common::Result<std::shared_ptr<net::Transport>> {
      auto t = node_->Connect();
      if (!t) return common::Status::IOError("node down");
      return t;
    };
    etlscript::EtlClient client(client_options);
    const std::string script = ".logon hq/u,p;\n" + script_settings_ + R"(
create table PROD.CUSTOMER (
  CUST_ID varchar(5) not null,
  CUST_NAME varchar(50),
  JOIN_DATE date
) unique primary index (CUST_ID);
.layout L;
.field CUST_ID varchar(5);
.field CUST_NAME varchar(50);
.field JOIN_DATE varchar(10);
.begin import tables PROD.CUSTOMER errortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV;
.dml label Ins;
)" + dml + R"(
.import infile input.txt format vartext '|' layout L apply Ins;
.end load;
.logoff;
)";
    return client.RunScript(script);
  }

  static constexpr const char* kInsertDml = R"(insert into PROD.CUSTOMER values (
  trim(:CUST_ID), trim(:CUST_NAME),
  cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'));)";

  int bad_date_every_ = 0;
  std::string script_settings_;
  std::string work_dir_;
  obs::MetricsRegistry registry_;
  obs::Tracer tracer_;
  std::unique_ptr<cloud::ObjectStore> store_;
  std::unique_ptr<cdw::CdwServer> cdw_;
  std::unique_ptr<HyperQServer> node_;
};

TEST_F(ObservabilityE2eTest, SnapshotCoversWholeLoadPath) {
  StartNode();
  auto run = RunImport(1000);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  node_->Stop();  // joins session threads so the active-sessions gauge settles

  obs::MetricsSnapshot snap = node_->MetricsSnapshot();

  // Counters from every stage of the pipeline.
  EXPECT_EQ(snap.counters.at("hyperq_rows_received_total"), 1000u);
  EXPECT_EQ(snap.counters.at("hyperq_rows_staged_total"), 1000u);
  EXPECT_EQ(snap.counters.at("hyperq_rows_copied_total"), 1000u);
  EXPECT_EQ(snap.counters.at("hyperq_import_jobs_started_total"), 1u);
  EXPECT_EQ(snap.counters.at("hyperq_import_jobs_completed_total"), 1u);
  EXPECT_GT(snap.counters.at("hyperq_chunks_total"), 0u);
  EXPECT_GT(snap.counters.at("hyperq_bytes_received_total"), 0u);
  EXPECT_GT(snap.counters.at("hyperq_files_uploaded_total"), 0u);
  EXPECT_GT(snap.counters.at("hyperq_sessions_total"), 0u);
  EXPECT_GT(snap.counters.at("hyperq_parcels_total"), 0u);
  EXPECT_GT(snap.counters.at("hyperq_credit_acquisitions_total"), 0u);
  EXPECT_GT(snap.counters.at("objstore_put_requests_total"), 0u);
  EXPECT_GT(snap.counters.at("cdw_copies_total"), 0u);
  EXPECT_EQ(snap.counters.at("cdw_copy_rows_total"), 1000u);

  // Latency histograms saw real observations.
  for (const char* name :
       {"hyperq_parcel_decode_seconds", "hyperq_convert_seconds", "hyperq_file_write_seconds",
        "hyperq_upload_seconds", "hyperq_dml_apply_seconds", "hyperq_credit_wait_seconds",
        "objstore_put_seconds", "cdw_copy_seconds", "cdw_statement_seconds"}) {
    ASSERT_TRUE(snap.histograms.count(name)) << name;
    EXPECT_GT(snap.histograms.at(name).count, 0u) << name;
  }

  // Gauges settle once the pipeline drains.
  EXPECT_EQ(snap.gauges.at("hyperq_import_jobs_active"), 0);
  EXPECT_EQ(snap.gauges.at("hyperq_sessions_active"), 0);
  EXPECT_EQ(snap.gauges.at("hyperq_credits_in_use"), 0);
  EXPECT_EQ(snap.gauges.at("hyperq_memory_in_flight_bytes"), 0);
}

TEST_F(ObservabilityE2eTest, UpsertImportCountsHashJoinPath) {
  StartNode();
  // UPDATE ... ELSE INSERT becomes a MERGE whose ON is a plain key equality.
  auto run = RunImport(500, R"(update PROD.CUSTOMER set CUST_NAME = trim(:CUST_NAME)
  where CUST_ID = :CUST_ID
  else insert values (:CUST_ID, trim(:CUST_NAME),
    cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'));)");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->imports[0].report.rows_inserted, 500u);

  obs::MetricsSnapshot snap = node_->MetricsSnapshot();
  EXPECT_GE(snap.counters.at("cdw_join_hash_total"), 1u);
  EXPECT_EQ(snap.counters.at("cdw_join_nested_loop_total"), 0u);
}

TEST_F(ObservabilityE2eTest, ErrorIsolationReportsRowsScanned) {
  // §7 isolates bad dates by re-running the insert over HQ_ROWNUM halves;
  // each statement still scans the whole staging table.
  constexpr int kRows = 400;
  bad_date_every_ = 50;
  script_settings_ = ".set max_errors 4;\n";
  HyperQOptions options;
  options.error_isolation = ErrorIsolation::kHalving;
  StartNode(options);
  auto run = RunImport(kRows);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<std::string> jobs = tracer_.job_ids();
  ASSERT_EQ(jobs.size(), 1u);
  auto dml = node_->JobDmlResult(jobs[0]);
  ASSERT_TRUE(dml.ok()) << dml.status().ToString();
  EXPECT_GT(dml->range_errors, 0u);  // max_errors cut the search short

  // statements_issued counts one ET insert for all ET rows; the rest are
  // apply statements. Those form a binary split tree: a failing one records
  // one ET row (a singleton or a 9057 range) or splits into two. So
  // (apply + 1) / 2 - ET rows of them succeeded, and a statement that
  // succeeds scans every staging row.
  const uint64_t apply = dml->statements_issued - 1;
  ASSERT_EQ(apply % 2, 1u);
  const uint64_t succeeded = (apply + 1) / 2 - dml->et_errors;
  ASSERT_GT(succeeded, 0u);
  obs::MetricsSnapshot snap = node_->MetricsSnapshot();
  EXPECT_GE(snap.counters.at("cdw_rows_scanned_total"), succeeded * kRows);
  EXPECT_GE(snap.counters.at("cdw_statements_total"), dml->statements_issued);
}

TEST_F(ObservabilityE2eTest, PlannedErrorIsolationReportsSuspects) {
  // The same load, planned: the suspect query names rows 50, 100, ..., 400.
  // Rows 1-49, 51-99, 101-149 and 151-199 apply as four runs, and rows 50,
  // 100, 150 and 200 fail as singletons. max_errors is then reached, so
  // [201, 400] runs once and is recorded as a 9057 range. The five ET rows
  // go out in one insert. That is 2 + 4 + 4 + 1 + 1 statements. Once the
  // suspect query has answered, the nine statements it predicts go out in
  // one batch: 4 round trips, with no ERRORFIELD probe.
  bad_date_every_ = 50;
  script_settings_ = ".set max_errors 4;\n";
  StartNode();
  auto run = RunImport(400);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<std::string> jobs = tracer_.job_ids();
  ASSERT_EQ(jobs.size(), 1u);
  auto dml = node_->JobDmlResult(jobs[0]);
  ASSERT_TRUE(dml.ok()) << dml.status().ToString();
  EXPECT_EQ(dml->suspects, 8u);
  EXPECT_EQ(dml->plan_fallbacks, 0u);
  EXPECT_EQ(dml->rows_inserted, 196u);
  EXPECT_EQ(dml->et_errors, 5u);
  EXPECT_EQ(dml->range_errors, 1u);
  EXPECT_EQ(dml->statements_issued, 12u);
  EXPECT_EQ(dml->round_trips, 4u);
  obs::MetricsSnapshot snap = node_->MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("hyperq_error_suspects_total"), 8u);
  EXPECT_EQ(snap.counters.at("hyperq_error_plan_fallbacks_total"), 0u);
}

TEST_F(ObservabilityE2eTest, RetriedApplyStatementRecordsARetrySpan) {
  // cdw.exec call 1 is the script's CREATE TABLE, call 2 the job's one apply
  // statement. Its retry backoff belongs to a span inside the apply span.
  common::FaultInjector::Global().ResetForTesting();
  ASSERT_TRUE(common::FaultInjector::Global().Arm("cdw.exec=error,once=2").ok());
  StartNode();
  auto run = RunImport(200);
  const uint64_t injected = common::FaultInjector::Global().injected_count("cdw.exec");
  common::FaultInjector::Global().ResetForTesting();
  common::ResetBreakersForTesting();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(injected, 1u);
  EXPECT_EQ(run->imports[0].report.rows_inserted, 200u);

  auto trace = node_->JobTrace(run->imports[0].job_id);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const obs::SpanRecord* apply = nullptr;
  const obs::SpanRecord* retry = nullptr;
  std::vector<obs::SpanRecord> spans = (*trace)->spans();
  for (const obs::SpanRecord& s : spans) {
    if (s.phase == obs::Phase::kDmlApply) apply = &s;
    if (s.name == "retry:cdw.exec#1") retry = &s;
  }
  ASSERT_NE(apply, nullptr);
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->phase, obs::Phase::kRetryBackoff);
  EXPECT_GE(retry->start_micros, apply->start_micros);
  EXPECT_LE(retry->end_micros, apply->end_micros);
}

TEST_F(ObservabilityE2eTest, FailedImportEndsTheJobAsFailed) {
  // Every row violates the pattern, so the job-level quality abort fails
  // EndLoad. The job is over: it must leave the active gauge, count as
  // failed, and close its trace even though the node keeps it around.
  HyperQOptions options;
  options.quality.spec = "PROD.CUSTOMER{CUST_NAME:pattern[Bad*]}";
  options.quality.abort_over_threshold = true;
  options.quality.max_violation_rate = 0.5;
  StartNode(options);
  auto run = RunImport(200);
  ASSERT_FALSE(run.ok());
  node_->Stop();

  obs::MetricsSnapshot snap = node_->MetricsSnapshot();
  EXPECT_EQ(snap.gauges.at("hyperq_import_jobs_active"), 0);
  EXPECT_EQ(snap.counters.at("hyperq_import_jobs_started_total"), 1u);
  EXPECT_EQ(snap.counters.at("hyperq_import_jobs_failed_total"), 1u);
  EXPECT_EQ(snap.counters.at("hyperq_import_jobs_completed_total"), 0u);
  std::vector<std::string> jobs = tracer_.job_ids();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(tracer_.Find(jobs[0])->spans()[0].finished());
}

TEST_F(ObservabilityE2eTest, JobTraceFormsCompletePhaseSpanTree) {
  StartNode();
  auto run = RunImport(500);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string& job_id = run->imports[0].job_id;

  auto trace = node_->JobTrace(job_id);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  auto spans = (*trace)->spans();
  ASSERT_FALSE(spans.empty());

  // Root import span closed by ApplyDml.
  EXPECT_EQ(spans[0].phase, obs::Phase::kImport);
  EXPECT_TRUE(spans[0].finished());

  std::map<obs::Phase, int> phase_counts;
  for (const auto& s : spans) {
    ++phase_counts[s.phase];
    if (s.id == (*trace)->root_id()) continue;
    EXPECT_TRUE(s.finished()) << s.name;
    EXPECT_GE(s.start_micros, 0) << s.name;
    EXPECT_GE(s.end_micros, s.start_micros) << s.name;
    // This pipeline nests every phase directly under the import root.
    EXPECT_EQ(s.parent_id, (*trace)->root_id()) << s.name;
  }
  // One span per decoded data chunk / converted chunk; exactly one per
  // one-shot phase.
  EXPECT_GT(phase_counts[obs::Phase::kParcelDecode], 0);
  EXPECT_GT(phase_counts[obs::Phase::kRowConvert], 0);
  EXPECT_GT(phase_counts[obs::Phase::kFileWrite], 0);
  EXPECT_EQ(phase_counts[obs::Phase::kStorePut], 1);
  EXPECT_EQ(phase_counts[obs::Phase::kCdwCopy], 1);
  EXPECT_EQ(phase_counts[obs::Phase::kDmlApply], 1);

  // The apply span ends no earlier than the upload span ends (pipeline
  // ordering), and the JSON export names the job.
  EXPECT_NE((*trace)->ToJson().find(job_id), std::string::npos);
  EXPECT_EQ((*trace)->dropped(), 0u);
}

TEST_F(ObservabilityE2eTest, CompressionPhaseAppearsWhenEnabled) {
  HyperQOptions options;
  options.compress_staging_files = true;
  options.file_size_threshold = 2048;
  StartNode(options);
  auto run = RunImport(1000);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  auto trace = node_->JobTrace(run->imports[0].job_id);
  ASSERT_TRUE(trace.ok());
  bool saw_compress = false;
  for (const auto& s : (*trace)->spans()) {
    if (s.phase == obs::Phase::kCompress) saw_compress = true;
  }
  EXPECT_TRUE(saw_compress);
  obs::MetricsSnapshot snap = node_->MetricsSnapshot();
  EXPECT_GT(snap.histograms.at("hyperq_compress_seconds").count, 0u);
}

TEST_F(ObservabilityE2eTest, LiveSnapshotRoundTripsThroughBothExporters) {
  StartNode();
  auto run = RunImport(300);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  obs::MetricsSnapshot snap = node_->MetricsSnapshot();
  auto from_prom = obs::FromPrometheusText(obs::ToPrometheusText(snap));
  ASSERT_TRUE(from_prom.ok()) << from_prom.status().ToString();
  EXPECT_EQ(*from_prom, snap);
  auto from_json = obs::FromJson(obs::ToJson(snap));
  ASSERT_TRUE(from_json.ok()) << from_json.status().ToString();
  EXPECT_EQ(*from_json, snap);
}

TEST_F(ObservabilityE2eTest, LockGraphExportsAcyclicOrderAfterImport) {
  common::LockOrderGraph::Global().ResetForTesting();
  StartNode();
  auto run = RunImport(500);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  node_->Stop();  // Stop() nests sessions_mu_ under lifecycle_mu_: a real edge

  // The metrics surface carries the graph size and per-rank contention.
  obs::MetricsSnapshot snap = node_->MetricsSnapshot();
  ASSERT_TRUE(snap.gauges.count("hyperq_lock_order_edges"));
  EXPECT_GE(snap.gauges.at("hyperq_lock_order_edges"), 1);
  ASSERT_TRUE(snap.gauges.count("hyperq_lock_contention_total{rank=\"kObs\"}"));

  // The whole load path must leave an acyclic order behind.
  common::LockOrderSnapshot locks = common::LockOrderGraph::Global().Snapshot();
  EXPECT_FALSE(locks.edges.empty());
  EXPECT_FALSE(locks.has_cycle) << node_->LockGraph();

  std::string dot = node_->LockGraph(HyperQServer::LockGraphFormat::kDot);
  EXPECT_NE(dot.find("digraph lock_order"), std::string::npos);
  EXPECT_NE(dot.find("cycles: none"), std::string::npos);
  EXPECT_EQ(dot.find("CYCLE DETECTED"), std::string::npos) << dot;
  std::string json = node_->LockGraph(HyperQServer::LockGraphFormat::kJson);
  EXPECT_NE(json.find("\"has_cycle\": false"), std::string::npos) << json;

  // ci/check.sh points HQ_LOCK_GRAPH_OUT at a build artifact and fails the
  // run if the dump records a cycle.
  if (const char* out_path = std::getenv("HQ_LOCK_GRAPH_OUT")) {
    std::ofstream out(out_path, std::ios::trunc);
    out << dot;
  }
}

TEST_F(ObservabilityE2eTest, DisabledObservabilityYieldsEmptySnapshotAndNoTraces) {
  HyperQOptions options;
  options.enable_observability = false;
  StartNode(options);
  auto run = RunImport(200);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->imports[0].report.rows_inserted, 200u);

  EXPECT_EQ(node_->MetricsSnapshot(), obs::MetricsSnapshot{});
  EXPECT_EQ(node_->metrics(), nullptr);
  EXPECT_FALSE(node_->JobTrace(run->imports[0].job_id).ok());
  // The external registry was never touched.
  EXPECT_TRUE(registry_.Snapshot().counters.empty());
}

}  // namespace
}  // namespace hyperq::core

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cdw/cdw_server.h"
#include "cloudstore/bulk_loader.h"
#include "cloudstore/object_store.h"
#include "common/fault.h"
#include "common/retry.h"
#include "etlscript/etl_client.h"
#include "hyperq/server.h"
#include "stream/stream_client.h"

/// Capstone differential for the streaming subsystem: a drifting streaming
/// workload (layout add + drop + reorder mid-stream, committed across four
/// micro-batches) must land the byte-identical final table as one equivalent
/// batch import of the same logical rows — fault-free AND under an
/// aggressive injected-fault regime — and a replayed commit must be absorbed
/// by the exactly-once journal without duplicating a single row.

namespace hyperq::stream {
namespace {

using core::HyperQOptions;
using core::HyperQServer;
using types::Field;
using types::Schema;
using types::TypeDesc;

constexpr int kRowsPerPhase = 40;

Schema BaseLayout() {
  Schema layout;
  layout.AddField(Field("CUST_ID", TypeDesc::Varchar(5)));
  layout.AddField(Field("CUST_NAME", TypeDesc::Varchar(50)));
  layout.AddField(Field("JOIN_DATE", TypeDesc::Varchar(10)));
  return layout;
}

class StreamE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_dir_ = "/tmp/hq_stream_e2e." + std::to_string(::getpid());
    std::filesystem::remove_all(work_dir_);
    std::filesystem::create_directories(work_dir_);
    ResetResilienceState();
  }

  void TearDown() override {
    StopNode();
    ResetResilienceState();
  }

  static void ResetResilienceState() {
    common::FaultInjector::Global().ResetForTesting();
    common::RetryStats::Global().ResetForTesting();
    common::ResetBreakersForTesting();
  }

  void StartNode(HyperQOptions options = {}) {
    store_ = std::make_unique<cloud::ObjectStore>();
    cdw_ = std::make_unique<cdw::CdwServer>(store_.get());
    options.local_staging_dir = work_dir_ + "/staging";
    node_ = std::make_unique<HyperQServer>(cdw_.get(), store_.get(), options);
    node_->Start();
    // Both the streaming and the batch run start from the same target table
    // (the stream protocol has no DDL verb).
    Schema target;
    target.AddField(Field("CUST_ID", TypeDesc::Varchar(5), false));
    target.AddField(Field("CUST_NAME", TypeDesc::Varchar(50)));
    target.AddField(Field("JOIN_DATE", TypeDesc::Date()));
    ASSERT_TRUE(
        cdw_->catalog()->CreateTable("PROD.CUSTOMER", target, {"CUST_ID"}, true).ok());
  }

  void StopNode() {
    if (node_) {
      node_->Stop();
      node_.reset();
    }
  }

  StreamClient MakeStreamClient() {
    StreamClientOptions options;
    options.connector =
        [this](const std::string&) -> common::Result<std::shared_ptr<net::Transport>> {
      auto t = node_->Connect();
      if (!t) return common::Status::IOError("node down");
      return t;
    };
    return StreamClient(std::move(options));
  }

  etlscript::EtlClient MakeEtlClient() {
    etlscript::EtlClientOptions options;
    options.working_dir = work_dir_;
    options.chunk_rows = 25;
    options.connector =
        [this](const std::string&) -> common::Result<std::shared_ptr<net::Transport>> {
      auto t = node_->Connect();
      if (!t) return common::Status::IOError("node down");
      return t;
    };
    return etlscript::EtlClient(options);
  }

  static legacy::BeginStreamBody MakeBegin() {
    legacy::BeginStreamBody begin;
    begin.job_id = "strm_e2e";
    begin.target_table = "PROD.CUSTOMER";
    begin.format = legacy::DataFormat::kVartext;
    begin.delimiter = '|';
    begin.layout = BaseLayout();
    begin.dml_label = "Ins";
    begin.dml_sql =
        "insert into PROD.CUSTOMER values ("
        "trim(:CUST_ID), trim(:CUST_NAME), "
        "cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'));";
    return begin;
  }

  /// Drives the full drifting stream: four phases of kRowsPerPhase rows,
  /// each committed as its own micro-batch.
  ///   phase 1: base layout            CUST_ID|CUST_NAME|JOIN_DATE
  ///   phase 2: EXTRA column appears   CUST_ID|CUST_NAME|JOIN_DATE|EXTRA
  ///   phase 3: CUST_NAME disappears   CUST_ID|JOIN_DATE
  ///   phase 4: reordered              JOIN_DATE|CUST_NAME|CUST_ID
  common::Status RunDriftingStream(StreamClient* client) {
    HQ_RETURN_NOT_OK(client->Begin(MakeBegin()));
    int id = 0;
    auto ids = [&] {
      std::vector<int> out;
      for (int i = 0; i < kRowsPerPhase; ++i) out.push_back(++id);
      return out;
    };

    std::vector<std::string> lines;
    for (int i : ids()) {
      lines.push_back(std::to_string(i) + "|Name" + std::to_string(i) + "|2012-01-01");
    }
    HQ_RETURN_NOT_OK(client->SendLines(lines));
    HQ_RETURN_NOT_OK(client->Commit(1000).status());

    Schema added = BaseLayout();
    added.AddField(Field("EXTRA", TypeDesc::Varchar(8)));
    HQ_RETURN_NOT_OK(client->ChangeLayout(added));
    lines.clear();
    for (int i : ids()) {
      lines.push_back(std::to_string(i) + "|Name" + std::to_string(i) + "|2012-01-01|junk" +
                      std::to_string(i));
    }
    HQ_RETURN_NOT_OK(client->SendLines(lines));
    HQ_RETURN_NOT_OK(client->Commit(2000).status());

    Schema dropped;
    dropped.AddField(Field("CUST_ID", TypeDesc::Varchar(5)));
    dropped.AddField(Field("JOIN_DATE", TypeDesc::Varchar(10)));
    HQ_RETURN_NOT_OK(client->ChangeLayout(dropped));
    lines.clear();
    for (int i : ids()) {
      lines.push_back(std::to_string(i) + "|2012-01-01");
    }
    HQ_RETURN_NOT_OK(client->SendLines(lines));
    HQ_RETURN_NOT_OK(client->Commit(3000).status());

    Schema reordered;
    reordered.AddField(Field("JOIN_DATE", TypeDesc::Varchar(10)));
    reordered.AddField(Field("CUST_NAME", TypeDesc::Varchar(50)));
    reordered.AddField(Field("CUST_ID", TypeDesc::Varchar(5)));
    HQ_RETURN_NOT_OK(client->ChangeLayout(reordered));
    lines.clear();
    for (int i : ids()) {
      lines.push_back("2012-01-01|Name" + std::to_string(i) + "|" + std::to_string(i));
    }
    HQ_RETURN_NOT_OK(client->SendLines(lines));
    HQ_RETURN_NOT_OK(client->Commit(4000).status());
    return common::Status::OK();
  }

  /// The batch-equivalent input in the ORIGINAL layout: phase 2's EXTRA is
  /// dropped, phase 3's missing CUST_NAME is NULL (empty vartext field).
  static std::string EquivalentBatchData() {
    std::string data;
    int id = 0;
    for (int i = 0; i < kRowsPerPhase; ++i, ++id) {
      data += std::to_string(id + 1) + "|Name" + std::to_string(id + 1) + "|2012-01-01\n";
    }
    for (int i = 0; i < kRowsPerPhase; ++i, ++id) {
      data += std::to_string(id + 1) + "|Name" + std::to_string(id + 1) + "|2012-01-01\n";
    }
    for (int i = 0; i < kRowsPerPhase; ++i, ++id) {
      data += std::to_string(id + 1) + "||2012-01-01\n";
    }
    for (int i = 0; i < kRowsPerPhase; ++i, ++id) {
      data += std::to_string(id + 1) + "|Name" + std::to_string(id + 1) + "|2012-01-01\n";
    }
    return data;
  }

  static std::string BatchScript() {
    return R"(.logon hq/u,p;
.layout L;
.field CUST_ID varchar(5);
.field CUST_NAME varchar(50);
.field JOIN_DATE varchar(10);
.begin import tables PROD.CUSTOMER errortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV;
.dml label Ins;
insert into PROD.CUSTOMER values (
  trim(:CUST_ID), trim(:CUST_NAME),
  cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'));
.import infile input.txt format vartext '|' layout L apply Ins;
.end load;
.logoff;
)";
  }

  std::string TableContents(const std::string& table) {
    auto result =
        cdw_->ExecuteSql("SELECT * FROM " + table + " ORDER BY CUST_ID").ValueOrDie();
    std::string out;
    for (const auto& row : result.rows) {
      for (const auto& value : row) out += value.ToString() + "|";
      out += "\n";
    }
    return out;
  }

  uint64_t CountRows(const std::string& table) {
    auto result = cdw_->ExecuteSql("SELECT COUNT(*) FROM " + table).ValueOrDie();
    return static_cast<uint64_t>(result.rows[0][0].int_value());
  }

  std::string work_dir_;
  std::unique_ptr<cloud::ObjectStore> store_;
  std::unique_ptr<cdw::CdwServer> cdw_;
  std::unique_ptr<HyperQServer> node_;
};

TEST_F(StreamE2eTest, DriftingStreamLandsByteIdenticalToEquivalentBatch) {
  // --- Batch reference run. ---
  StartNode();
  ASSERT_TRUE(cloud::WriteFileBytes(work_dir_ + "/input.txt",
                                    common::Slice(std::string_view(EquivalentBatchData())))
                  .ok());
  auto batch_run = MakeEtlClient().RunScript(BatchScript());
  ASSERT_TRUE(batch_run.ok()) << batch_run.status().ToString();
  EXPECT_EQ(batch_run->imports[0].report.rows_inserted, 4u * kRowsPerPhase);
  EXPECT_EQ(batch_run->imports[0].report.et_errors, 0u);
  const std::string batch_table = TableContents("PROD.CUSTOMER");
  ASSERT_FALSE(batch_table.empty());
  StopNode();
  ResetResilienceState();

  // --- Streaming run with drift. ---
  StartNode();
  auto client = MakeStreamClient();
  auto run = RunDriftingStream(&client);
  ASSERT_TRUE(run.ok()) << run.ToString();
  auto report = client.End();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_inserted, 4u * kRowsPerPhase);
  EXPECT_EQ(report->et_errors, 0u);
  ASSERT_TRUE(client.Logoff().ok());

  EXPECT_EQ(TableContents("PROD.CUSTOMER"), batch_table)
      << "drifting stream landed different bytes than the equivalent batch load";

  auto stats = node_->StreamJobStats("strm_e2e").ValueOrDie();
  EXPECT_EQ(stats.batches_committed, 4u);
  EXPECT_EQ(stats.rows_committed, 4u * kRowsPerPhase);
  EXPECT_EQ(stats.layout_changes, 3u);
  EXPECT_EQ(stats.fields_dropped, 1u);  // EXTRA in phase 2
  EXPECT_EQ(stats.fields_nulled, 1u);   // CUST_NAME in phase 3

  node_->Stop();
  obs::MetricsSnapshot snap = node_->MetricsSnapshot();
  EXPECT_GT(snap.counters.at("hyperq_stream_remap_total"), 0u);
  EXPECT_EQ(snap.counters.at("hyperq_stream_batches_committed_total"), 4u);
  EXPECT_EQ(snap.counters.at("hyperq_stream_rows_committed_total"), 4u * kRowsPerPhase);
  EXPECT_GT(snap.histograms.at("hyperq_stream_batch_latency_seconds").count, 0u);
  EXPECT_EQ(snap.gauges.at("hyperq_stream_jobs_active"), 0);

  // The commit tail is shared with imports, so a stream reports the same
  // per-layer metrics and spans under the same names, below a kStream root.
  for (const char* name :
       {"hyperq_convert_seconds", "hyperq_file_write_seconds", "hyperq_upload_seconds"}) {
    ASSERT_TRUE(snap.histograms.count(name)) << name;
    EXPECT_GT(snap.histograms.at(name).count, 0u) << name;
  }
  EXPECT_GT(snap.counters.at("hyperq_files_uploaded_total"), 0u);
  EXPECT_GT(snap.counters.at("hyperq_bytes_uploaded_total"), 0u);
  EXPECT_EQ(snap.counters.at("hyperq_rows_copied_total"), 4u * kRowsPerPhase);
  auto trace = node_->JobTrace("strm_e2e");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  std::vector<obs::SpanRecord> spans = (*trace)->spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].phase, obs::Phase::kStream);
  EXPECT_TRUE(spans[0].finished());
  std::map<obs::Phase, int> phase_counts;
  for (const auto& span : spans) ++phase_counts[span.phase];
  EXPECT_GT(phase_counts[obs::Phase::kRowConvert], 0);
  EXPECT_GT(phase_counts[obs::Phase::kFileWrite], 0);
}

TEST_F(StreamE2eTest, StreamTraceCarriesParcelDecodeSpans) {
  // A stream's data chunks are decoded by the session like an import's, so
  // its JobTrace carries one "decode" span per chunk under the stream root.
  StartNode();
  auto client = MakeStreamClient();
  ASSERT_TRUE(client.Begin(MakeBegin()).ok());
  std::vector<std::string> lines;
  for (int i = 1; i <= kRowsPerPhase; ++i) {
    lines.push_back(std::to_string(i) + "|Name" + std::to_string(i) + "|2012-01-01");
  }
  ASSERT_TRUE(client.SendLines(lines).ok());
  ASSERT_TRUE(client.Commit(1000).ok());
  ASSERT_TRUE(client.End().ok());
  ASSERT_TRUE(client.Logoff().ok());

  auto trace = node_->JobTrace("strm_e2e");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  int decode_spans = 0;
  for (const obs::SpanRecord& span : (*trace)->spans()) {
    if (span.phase != obs::Phase::kParcelDecode) continue;
    ++decode_spans;
    EXPECT_EQ(span.name, "decode");
    EXPECT_TRUE(span.finished());
    EXPECT_GE(span.end_micros, span.start_micros);
  }
  EXPECT_GT(decode_spans, 0);
  EXPECT_EQ((*trace)->dropped(), 0u);
}

TEST_F(StreamE2eTest, DriftingStreamSurvivesInjectedFaultsByteIdentically) {
  // --- Fault-free reference: the same streaming workload. ---
  StartNode();
  {
    auto client = MakeStreamClient();
    ASSERT_TRUE(RunDriftingStream(&client).ok());
    ASSERT_TRUE(client.End().ok());
    ASSERT_TRUE(client.Logoff().ok());
  }
  EXPECT_EQ(common::FaultInjector::Global().total_injected(), 0u);
  EXPECT_EQ(common::RetryStats::Global().total_retries(), 0u);
  const std::string baseline = TableContents("PROD.CUSTOMER");
  ASSERT_FALSE(baseline.empty());
  StopNode();
  ResetResilienceState();

  // --- Chaos run: every load-path point armed at >=10% plus a guaranteed
  // first fire; cdw.copy additionally drops an ack so the COPY ledger's
  // exactly-once dedup is exercised inside a commit. ---
  HyperQOptions chaos;
  chaos.fault_spec =
      "seed=4242;"
      "objstore.put=error,once=1;objstore.put=error,p=0.15;"
      "cdw.copy=drop,once=1;cdw.copy=error,p=0.1;"
      "cdw.exec=error,once=1;cdw.exec=error,p=0.1;"
      "bulkload.file=error,once=1;bulkload.file=error,p=0.15;";
  chaos.io_retry.max_attempts = 8;
  chaos.io_retry.initial_backoff_micros = 50;
  chaos.io_retry.max_backoff_micros = 2000;
  StartNode(chaos);
  {
    auto client = MakeStreamClient();
    auto run = RunDriftingStream(&client);
    ASSERT_TRUE(run.ok()) << run.ToString();
    auto report = client.End();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->rows_inserted, 4u * kRowsPerPhase);
    EXPECT_EQ(report->et_errors, 0u);
    ASSERT_TRUE(client.Logoff().ok());
  }
  EXPECT_GE(common::FaultInjector::Global().total_injected(), 4u);
  EXPECT_GE(common::RetryStats::Global().total_retries(), 1u);
  auto stats = node_->StreamJobStats("strm_e2e").ValueOrDie();
  EXPECT_EQ(stats.chunks_abandoned, 0u) << "p<=0.15 over 8 attempts must never exhaust";

  common::FaultInjector::Global().Disarm();
  EXPECT_EQ(TableContents("PROD.CUSTOMER"), baseline)
      << "stream under chaos landed different bytes than the fault-free stream";
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 4u * kRowsPerPhase) << "duplicate or lost rows";
  EXPECT_EQ(TableContents("PROD.CUSTOMER_ET"), "");
}

TEST_F(StreamE2eTest, ReplayedCommitIsAbsorbedByTheJournal) {
  StartNode();
  auto client = MakeStreamClient();
  ASSERT_TRUE(client.Begin(MakeBegin()).ok());
  ASSERT_TRUE(client.SendLines({"1|Ada|2012-01-01", "2|Bob|2012-01-01"}).ok());
  auto first = client.Commit(1000);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->rows_in_batch, 2u);

  // The client "never saw" the reply and re-sends the same CommitBatch: the
  // server answers from the journal without re-running the commit pipeline.
  auto replay = client.RetryCommit();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->batch_seq, first->batch_seq);
  EXPECT_EQ(replay->rows_in_batch, first->rows_in_batch);
  EXPECT_EQ(replay->rows_total, first->rows_total);

  ASSERT_TRUE(client.SendLines({"3|Cyd|2012-01-01"}).ok());
  ASSERT_TRUE(client.Commit(2000).ok());
  auto report = client.End();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_inserted, 3u);
  ASSERT_TRUE(client.Logoff().ok());

  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 3u) << "replayed commit duplicated rows";
  auto stats = node_->StreamJobStats("strm_e2e").ValueOrDie();
  EXPECT_EQ(stats.commit_replays, 1u);
  EXPECT_EQ(stats.batches_committed, 2u);
}

}  // namespace
}  // namespace hyperq::stream

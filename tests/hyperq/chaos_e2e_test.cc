#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "cdw/cdw_server.h"
#include "cloudstore/bulk_loader.h"
#include "cloudstore/object_store.h"
#include "common/fault.h"
#include "common/retry.h"
#include "etlscript/etl_client.h"
#include "hyperq/server.h"
#include "legacy/errors.h"

namespace hyperq::core {
namespace {

/// Chaos differential tests: the same import, run fault-free and under an
/// aggressive injected-fault regime, must land the byte-identical final
/// table — the resilience layer may only change *how* the rows get there
/// (retries, breaker trips, resumed uploads), never *what* arrives.
class ChaosE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_dir_ = "/tmp/hq_chaos_e2e." + std::to_string(::getpid());
    std::filesystem::remove_all(work_dir_);
    std::filesystem::create_directories(work_dir_);
    ResetResilienceState();
  }

  void TearDown() override {
    StopNode();
    ResetResilienceState();
  }

  /// The injector, retry stats and breaker registry are process-global;
  /// every test starts and ends with all three pristine.
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
  }

  void StopNode() {
    if (node_) {
      node_->Stop();
      node_.reset();
    }
  }

  void WriteInput(const std::string& content) {
    ASSERT_TRUE(cloud::WriteFileBytes(work_dir_ + "/input.txt",
                                      common::Slice(std::string_view(content)))
                    .ok());
  }

  etlscript::EtlClient MakeClient(size_t chunk_rows = 100) {
    etlscript::EtlClientOptions options;
    options.working_dir = work_dir_;
    options.chunk_rows = chunk_rows;
    options.connector =
        [this](const std::string&) -> common::Result<std::shared_ptr<net::Transport>> {
      auto t = node_->Connect();
      if (!t) return common::Status::IOError("node down");
      return t;
    };
    return etlscript::EtlClient(options);
  }

  static std::string BaseScript() {
    return R"(.logon hq/u,p;
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
insert into PROD.CUSTOMER values (
  trim(:CUST_ID), trim(:CUST_NAME),
  cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'));
.import infile input.txt format vartext '|' layout L apply Ins;
.end load;
.logoff;
)";
  }

  static std::string SampleData(int rows) {
    std::string data;
    for (int i = 1; i <= rows; ++i) {
      data += std::to_string(i) + "|Name" + std::to_string(i) + "|2012-01-01\n";
    }
    return data;
  }

  /// Full, deterministic serialization of a table — the differential's
  /// byte-identity check compares these strings across runs.
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

/// Every registered fault point, armed aggressively. `once=1` guarantees
/// each point fires at least once regardless of probability draws; the p=
/// rules keep failing ~1 call in 5 after that. The net points inject
/// latency (not errors): the legacy wire between client and node has no
/// application-level retry, so error faults there test fail-fast behaviour
/// (separate test below), not transparent recovery.
constexpr const char* kChaosSpec =
    "seed=1234;"
    "objstore.put=error,once=1;objstore.put=error,p=0.2;"
    "objstore.get=error,once=1;objstore.get=error,p=0.2;"
    "cdw.copy=error,once=1;cdw.copy=error,p=0.2;"
    "cdw.exec=error,once=1;cdw.exec=error,p=0.1;"
    "bulkload.file=error,once=1;bulkload.file=error,p=0.2;"
    "net.read=latency,once=1,us=500;net.read=latency,p=0.1,us=200;"
    "net.write=latency,once=1,us=500;net.write=latency,p=0.1,us=200;";

TEST_F(ChaosE2eTest, FaultFreeAndChaosRunsLoadByteIdenticalTables) {
  const std::string data = SampleData(1000);

  // --- Baseline: injection off. ---
  StartNode();
  WriteInput(data);
  auto baseline_run = MakeClient().RunScript(BaseScript());
  ASSERT_TRUE(baseline_run.ok()) << baseline_run.status().ToString();
  EXPECT_EQ(baseline_run->imports[0].report.rows_inserted, 1000u);
  EXPECT_EQ(baseline_run->imports[0].report.et_errors, 0u);
  const std::string baseline = TableContents("PROD.CUSTOMER");
  ASSERT_FALSE(baseline.empty());

  // With injection off the load path must record exactly ZERO retries and
  // zero injected faults — the resilience layer is invisible when healthy.
  EXPECT_EQ(common::FaultInjector::Global().total_injected(), 0u);
  EXPECT_EQ(common::RetryStats::Global().total_retries(), 0u);
  obs::MetricsSnapshot clean_snap = node_->MetricsSnapshot();
  for (const auto& [name, value] : clean_snap.gauges) {
    EXPECT_EQ(name.find("hyperq_retry_attempts_total"), std::string::npos)
        << name << "=" << value;
    EXPECT_EQ(name.find("hyperq_faults_injected_total"), std::string::npos)
        << name << "=" << value;
  }
  StopNode();
  ResetResilienceState();

  // --- Chaos: every fault point armed, deeper retry budget. ---
  HyperQOptions chaos;
  chaos.fault_spec = kChaosSpec;
  chaos.io_retry.max_attempts = 8;
  chaos.io_retry.initial_backoff_micros = 50;
  chaos.io_retry.max_backoff_micros = 2000;
  StartNode(chaos);
  WriteInput(data);
  auto chaos_run = MakeClient().RunScript(BaseScript());
  ASSERT_TRUE(chaos_run.ok()) << chaos_run.status().ToString();
  EXPECT_EQ(chaos_run->imports[0].report.rows_inserted, 1000u);
  EXPECT_EQ(chaos_run->imports[0].report.et_errors, 0u);

  auto stats = node_->JobStats(chaos_run->imports[0].job_id).ValueOrDie();
  EXPECT_EQ(stats.chunks_abandoned, 0u) << "p=0.2 over 8 attempts must never exhaust";

  // Retries and injections must be visible before disarming. The two
  // export-path points cannot fire in an import-only run; the export chaos
  // test below covers them.
  EXPECT_GE(common::RetryStats::Global().total_retries(), 1u);
  for (const auto& [point, injected] : common::FaultInjector::Global().InjectedCounts()) {
    if (point == "tdf.read" || point == "export.send") continue;
    EXPECT_GE(injected, 1u) << "fault point " << point
                            << " never fired: the chaos spec is not covering the load path";
  }
  obs::MetricsSnapshot snap = node_->MetricsSnapshot();
  uint64_t exported_injected = 0;
  uint64_t exported_retries = 0;
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("hyperq_faults_injected_total", 0) == 0) {
      exported_injected += static_cast<uint64_t>(value);
    }
    if (name.rfind("hyperq_retry_attempts_total", 0) == 0) {
      exported_retries += static_cast<uint64_t>(value);
    }
  }
  EXPECT_EQ(exported_injected, common::FaultInjector::Global().total_injected());
  EXPECT_EQ(exported_retries, common::RetryStats::Global().total_retries());

  // Disarm before the verification queries so they read the table unfaulted.
  common::FaultInjector::Global().Disarm();
  EXPECT_EQ(TableContents("PROD.CUSTOMER"), baseline)
      << "chaos run landed different bytes than the fault-free run";
  EXPECT_EQ(TableContents("PROD.CUSTOMER_ET"), "");
  EXPECT_EQ(TableContents("PROD.CUSTOMER_UV"), "");
}

TEST_F(ChaosE2eTest, ExhaustedStagingRetriesDegradeIntoEtRowsNotJobFailure) {
  // One guaranteed staging failure and no retry budget: the affected chunk
  // is abandoned into the ET table (code 9058) and the rest of the load
  // completes — graceful degradation, not job failure.
  HyperQOptions options;
  options.fault_spec = "bulkload.file=error,once=1";
  options.io_retry.max_attempts = 1;
  StartNode(options);
  WriteInput(SampleData(1000));
  auto run = MakeClient(/*chunk_rows=*/100).RunScript(BaseScript());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->imports[0].report.rows_inserted, 900u);
  EXPECT_EQ(run->imports[0].report.et_errors, 1u);

  auto stats = node_->JobStats(run->imports[0].job_id).ValueOrDie();
  EXPECT_EQ(stats.chunks_abandoned, 1u);

  common::FaultInjector::Global().Disarm();
  auto et = cdw_->ExecuteSql("SELECT ERRORCODE, ERRORMESSAGE FROM PROD.CUSTOMER_ET")
                .ValueOrDie();
  ASSERT_EQ(et.rows.size(), 1u);
  EXPECT_EQ(et.rows[0][0].int_value(), legacy::kErrChunkAbandoned);
  EXPECT_NE(et.rows[0][1].string_value().find("chunk abandoned"), std::string::npos);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 900u);
}

TEST_F(ChaosE2eTest, AbandonedChunkKeepsItsConversionErrorsInEtTable) {
  // The same degradation with a bad-arity row inside the abandoned chunk:
  // its conversion error still describes a real input row, so it lands in
  // the ET table next to the 9058 marker and the ET rows match the counted
  // errors. One writer makes the first chunk (rows 1-100) the abandoned one.
  HyperQOptions options;
  options.fault_spec = "bulkload.file=error,once=1";
  options.io_retry.max_attempts = 1;
  options.file_writers = 1;
  StartNode(options);
  std::string data = SampleData(1000);
  const std::string good_row = "5|Name5|2012-01-01\n";
  data.replace(data.find(good_row), good_row.size(), "5|Name5\n");
  WriteInput(data);
  auto run = MakeClient(/*chunk_rows=*/100).RunScript(BaseScript());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->imports[0].report.rows_inserted, 900u);
  EXPECT_EQ(run->imports[0].report.et_errors, 2u);

  auto stats = node_->JobStats(run->imports[0].job_id).ValueOrDie();
  EXPECT_EQ(stats.chunks_abandoned, 1u);
  EXPECT_EQ(stats.data_errors, 2u);  // conversion error + abandonment marker

  common::FaultInjector::Global().Disarm();
  auto et = cdw_->ExecuteSql("SELECT ERRORCODE FROM PROD.CUSTOMER_ET ORDER BY ERRORCODE")
                .ValueOrDie();
  ASSERT_EQ(et.rows.size(), 2u) << "ET rows diverge from counted errors";
  EXPECT_NE(et.rows[0][0].int_value(), legacy::kErrChunkAbandoned);
  EXPECT_EQ(et.rows[1][0].int_value(), legacy::kErrChunkAbandoned);
  EXPECT_EQ(CountRows("PROD.CUSTOMER"), 900u);
}

TEST_F(ChaosE2eTest, ExportPathSurvivesTdfReadAndSendFaults) {
  // Differential over the export path: the two export-side fault points
  // (tdf.read on the cursor fetch, export.send on the reply hop) fire
  // aggressively; the retried run must write the byte-identical outfile.
  const char* script = R"(.logon hq/u,p;
.begin export outfile out.txt format vartext '|';
select ID, NAME from SRC order by ID;
.end export;
.logoff;
)";
  auto seed_table = [&] {
    ASSERT_TRUE(cdw_->ExecuteSql("CREATE TABLE SRC (ID INTEGER, NAME VARCHAR(20))").ok());
    for (int i = 1; i <= 200; ++i) {
      ASSERT_TRUE(cdw_->ExecuteSql("INSERT INTO SRC VALUES (" + std::to_string(i) + ", 'n" +
                                   std::to_string(i) + "')")
                      .ok());
    }
  };
  auto read_outfile = [&]() -> std::string {
    auto bytes = cloud::ReadFileBytes(work_dir_ + "/out.txt");
    EXPECT_TRUE(bytes.ok());
    return bytes.ok() ? std::string(bytes->begin(), bytes->end()) : "";
  };

  // --- Baseline: injection off. ---
  HyperQOptions clean;
  clean.export_chunk_rows = 16;
  StartNode(clean);
  seed_table();
  auto baseline_run = MakeClient().RunScript(script);
  ASSERT_TRUE(baseline_run.ok()) << baseline_run.status().ToString();
  EXPECT_EQ(baseline_run->exports[0].rows_written, 200u);
  const std::string baseline = read_outfile();
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(common::FaultInjector::Global().total_injected(), 0u);
  EXPECT_EQ(common::RetryStats::Global().total_retries(), 0u);
  StopNode();
  ResetResilienceState();

  // --- Chaos: both export points armed. ---
  HyperQOptions chaos;
  chaos.export_chunk_rows = 16;
  chaos.fault_spec =
      "seed=77;"
      "tdf.read=error,once=1;tdf.read=error,p=0.15;"
      "export.send=error,once=1;export.send=error,p=0.15;";
  chaos.io_retry.max_attempts = 8;
  chaos.io_retry.initial_backoff_micros = 50;
  chaos.io_retry.max_backoff_micros = 2000;
  StartNode(chaos);
  seed_table();
  auto chaos_run = MakeClient().RunScript(script);
  ASSERT_TRUE(chaos_run.ok()) << chaos_run.status().ToString();
  EXPECT_EQ(chaos_run->exports[0].rows_written, 200u);

  EXPECT_GE(common::FaultInjector::Global().injected_count("tdf.read"), 1u);
  EXPECT_GE(common::FaultInjector::Global().injected_count("export.send"), 1u);
  EXPECT_GE(common::RetryStats::Global().total_retries(), 1u);

  common::FaultInjector::Global().Disarm();
  EXPECT_EQ(read_outfile(), baseline)
      << "chaos export wrote different bytes than the fault-free export";
}

TEST_F(ChaosE2eTest, BinaryStagingUnderChaosMatchesFaultFreeCsvBaseline) {
  // The staging-format differential under fire: the binary direct-pipe run,
  // fault-free AND under the full chaos regime, must land the byte-identical
  // table the fault-free CSV run lands. Retried uploads and retried COPYs
  // exercise the format-tagged ledger keys on .hqb objects.
  const std::string data = SampleData(1000);

  StartNode();
  WriteInput(data);
  auto csv_run = MakeClient().RunScript(BaseScript());
  ASSERT_TRUE(csv_run.ok()) << csv_run.status().ToString();
  EXPECT_EQ(csv_run->imports[0].report.rows_inserted, 1000u);
  const std::string baseline = TableContents("PROD.CUSTOMER");
  ASSERT_FALSE(baseline.empty());
  StopNode();
  ResetResilienceState();

  HyperQOptions binary;
  binary.staging_format = cdw::StagingFormat::kBinary;
  StartNode(binary);
  WriteInput(data);
  auto clean_run = MakeClient().RunScript(BaseScript());
  ASSERT_TRUE(clean_run.ok()) << clean_run.status().ToString();
  EXPECT_EQ(clean_run->imports[0].report.rows_inserted, 1000u);
  EXPECT_EQ(clean_run->imports[0].report.et_errors, 0u);
  EXPECT_EQ(TableContents("PROD.CUSTOMER"), baseline)
      << "fault-free binary staging landed different bytes than CSV staging";
  StopNode();
  ResetResilienceState();

  HyperQOptions chaos;
  chaos.staging_format = cdw::StagingFormat::kBinary;
  chaos.fault_spec = kChaosSpec;
  chaos.io_retry.max_attempts = 8;
  chaos.io_retry.initial_backoff_micros = 50;
  chaos.io_retry.max_backoff_micros = 2000;
  StartNode(chaos);
  WriteInput(data);
  auto chaos_run = MakeClient().RunScript(BaseScript());
  ASSERT_TRUE(chaos_run.ok()) << chaos_run.status().ToString();
  EXPECT_EQ(chaos_run->imports[0].report.rows_inserted, 1000u);
  EXPECT_EQ(chaos_run->imports[0].report.et_errors, 0u);
  auto stats = node_->JobStats(chaos_run->imports[0].job_id).ValueOrDie();
  EXPECT_EQ(stats.chunks_abandoned, 0u);
  EXPECT_GE(common::RetryStats::Global().total_retries(), 1u);

  common::FaultInjector::Global().Disarm();
  EXPECT_EQ(TableContents("PROD.CUSTOMER"), baseline)
      << "binary staging under chaos landed different bytes than the CSV baseline";
  EXPECT_EQ(TableContents("PROD.CUSTOMER_ET"), "");
  EXPECT_EQ(TableContents("PROD.CUSTOMER_UV"), "");
}

TEST_F(ChaosE2eTest, ConnectionDropFailsTheRunInsteadOfHanging) {
  // A dropped wire mid-handshake severs the session; the client must see a
  // terminal error promptly (EOF / IOError), never hang the run. ctest's
  // timeout is the backstop; the assertion is that the run *finishes* failed.
  HyperQOptions options;
  options.fault_spec = "net.read=drop,once=5";
  StartNode(options);
  WriteInput(SampleData(50));
  auto run = MakeClient().RunScript(BaseScript());
  EXPECT_FALSE(run.ok());
  EXPECT_GE(common::FaultInjector::Global().injected_count("net.read"), 1u);
}

}  // namespace
}  // namespace hyperq::core

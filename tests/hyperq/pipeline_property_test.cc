#include <gtest/gtest.h>

#include <filesystem>
#include <regex>

#include "cdw/cdw_server.h"
#include "cloudstore/bulk_loader.h"
#include "cloudstore/object_store.h"
#include "etlscript/etl_client.h"
#include "hyperq/server.h"
#include "workload/dataset.h"

namespace hyperq::core {
namespace {

/// End-to-end accounting invariant, property-tested over random pipeline
/// configurations and error mixes: every input row is accounted for exactly
/// once —
///   rows_in_target + uv_errors + individual_et_errors + rows_in_9057_ranges
///   + conversion_data_errors == rows_sent.
struct PropertyParams {
  uint64_t seed;
  uint64_t rows;
  double bad_dates;
  double duplicates;
  double short_rows;
  int sessions;
  size_t chunk_rows;
  uint64_t credits;
  uint64_t max_errors;  // 0 = default
};

/// Names each case by its seed, size and session count. Without it gtest
/// names a case by a byte dump of the struct, padding included, and the
/// name changes from build to build.
void PrintTo(const PropertyParams& p, std::ostream* os) {
  *os << "seed" << p.seed << "_rows" << p.rows << "_sessions" << p.sessions;
}

class PipelinePropertyTest : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(PipelinePropertyTest, EveryRowAccountedForExactlyOnce) {
  const PropertyParams& p = GetParam();
  // Unique per parameterization so `ctest -j` instances don't delete each
  // other's staging files.
  std::string work_dir = "/tmp/hq_pipeline_property_" + std::to_string(p.seed) + "_" +
                         std::to_string(p.rows) + "_" + std::to_string(p.sessions) + "_" +
                         std::to_string(p.chunk_rows) + "_" + std::to_string(p.credits);
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);

  workload::DatasetSpec spec;
  spec.rows = p.rows;
  spec.row_bytes = 160;
  spec.seed = p.seed;
  spec.bad_date_fraction = p.bad_dates;
  spec.duplicate_fraction = p.duplicates;
  spec.short_row_fraction = p.short_rows;
  workload::CustomerDataset dataset(spec);
  ASSERT_TRUE(dataset.WriteDataFile(work_dir + "/input.txt").ok());

  cloud::ObjectStore store;
  cdw::CdwServer cdw(&store);
  HyperQOptions options;
  options.local_staging_dir = work_dir + "/staging";
  options.credit_pool_size = p.credits;
  options.converter_workers = 2;
  HyperQServer node(&cdw, &store, options);
  node.Start();

  etlscript::EtlClientOptions client_options;
  client_options.working_dir = work_dir;
  client_options.chunk_rows = p.chunk_rows;
  client_options.connector =
      [&node](const std::string&) -> common::Result<std::shared_ptr<net::Transport>> {
    auto t = node.Connect();
    if (!t) return common::Status::IOError("down");
    return t;
  };
  etlscript::EtlClient client(client_options);

  const std::string target = "PROP.TARGET";
  std::string import_script =
      dataset.MakeImportScript("hq", target, work_dir + "/input.txt",
                               p.sessions, p.max_errors);
  std::string script = std::string(".logon hq/u,p;\n") + dataset.MakeTargetDdl(target) + ";\n" +
                       import_script.substr(import_script.find('\n') + 1);
  auto run = client.RunScript(script);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  node.Stop();

  const auto& report = run->imports[0].report;
  uint64_t target_rows = static_cast<uint64_t>(
      cdw.ExecuteSql("SELECT COUNT(*) FROM " + target).ValueOrDie().rows[0][0].int_value());
  EXPECT_EQ(target_rows, report.rows_inserted);

  // Dissect the ET table: individual errors vs 9057 range entries.
  auto et = cdw.ExecuteSql("SELECT ERRORCODE, ERRORMESSAGE FROM " + target + "_ET").ValueOrDie();
  uint64_t individual_errors = 0;
  uint64_t range_rows = 0;
  std::regex range_re(R"(row numbers: \((\d+), (\d+)\))");
  for (const auto& row : et.rows) {
    int64_t code = row[0].int_value();
    const std::string& msg = row[1].string_value();
    if (code == 9057) {
      std::smatch m;
      ASSERT_TRUE(std::regex_search(msg, m, range_re)) << msg;
      uint64_t first = std::stoull(m[1]);
      uint64_t last = std::stoull(m[2]);
      ASSERT_LE(first, last);
      range_rows += last - first + 1;
    } else {
      ++individual_errors;
    }
  }
  uint64_t uv_rows = static_cast<uint64_t>(
      cdw.ExecuteSql("SELECT COUNT(*) FROM " + target + "_UV").ValueOrDie()
          .rows[0][0].int_value());
  EXPECT_EQ(uv_rows, report.uv_errors);

  // The invariant: every sent row landed in exactly one bucket. Rows inside
  // a 9057 range may include rows that would have loaded fine — they are
  // charged to the range (that is the paper's explicit trade-off).
  EXPECT_EQ(report.rows_inserted + uv_rows + individual_errors + range_rows,
            run->imports[0].rows_sent)
      << "inserted=" << report.rows_inserted << " uv=" << uv_rows
      << " individual=" << individual_errors << " range_rows=" << range_rows;

  // Error totals in the report match the tables.
  EXPECT_EQ(report.et_errors, et.rows.size());
}

INSTANTIATE_TEST_SUITE_P(
    RandomConfigs, PipelinePropertyTest,
    ::testing::Values(
        PropertyParams{1, 500, 0.0, 0.0, 0.0, 1, 100, 16, 0},
        PropertyParams{2, 800, 0.05, 0.0, 0.0, 2, 64, 8, 0},
        PropertyParams{3, 800, 0.0, 0.05, 0.0, 2, 64, 8, 0},
        PropertyParams{4, 900, 0.03, 0.03, 0.02, 4, 50, 4, 0},
        PropertyParams{5, 600, 0.20, 0.0, 0.0, 2, 75, 32, 0},
        PropertyParams{6, 700, 0.04, 0.02, 0.0, 3, 40, 2, 0},
        PropertyParams{7, 1000, 0.02, 0.02, 0.01, 8, 25, 64, 0},
        PropertyParams{8, 600, 0.10, 0.05, 0.0, 2, 100, 16, 5},
        PropertyParams{9, 600, 0.15, 0.0, 0.0, 1, 200, 16, 3},
        PropertyParams{10, 400, 1.0, 0.0, 0.0, 2, 50, 8, 10}));

}  // namespace
}  // namespace hyperq::core

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cdw/cdw_server.h"
#include "cloudstore/object_store.h"
#include "common/random.h"
#include "hyperq/data_converter.h"
#include "hyperq/error_handler.h"
#include "legacy/row_format.h"
#include "sql/parser.h"

/// Differential test for planned §7 error isolation: the same staged rows,
/// applied once with the paper's halving search and once planned (suspect
/// query, clean runs, singleton suspects, rewind to halving on a failed run),
/// must leave the same target rows (as a multiset), the same ET and UV rows
/// in the same order, and the same DmlApplyResult apart from the statement
/// accounting. The cases vary the error rate (0-20%), spread or clustered
/// errors, max_errors, max_retries, duplicate keys and a failure shape the
/// suspect query does not recognise, over CSV and HQB1 staging.

namespace hyperq::core {
namespace {

using types::Field;
using types::Schema;
using types::TypeDesc;

constexpr char kDelimiter = '|';

Schema Layout() {
  Schema layout;
  layout.AddField(Field("ID", TypeDesc::Varchar(6)));
  layout.AddField(Field("NAME", TypeDesc::Varchar(12)));
  layout.AddField(Field("JOIN_DATE", TypeDesc::Varchar(10)));
  layout.AddField(Field("AMOUNT", TypeDesc::Varchar(8)));
  layout.AddField(Field("CODE", TypeDesc::Varchar(8)));
  return layout;
}

constexpr const char* kTargetDdl =
    "CREATE TABLE T (ID VARCHAR(6) NOT NULL, NAME VARCHAR(8), JOIN_DATE DATE, "
    "AMOUNT INTEGER, CODE INTEGER, PRIMARY KEY (ID))";

// Recognised shapes only: NULL into NOT NULL, string narrowing, TO_DATE and
// the implicit string-to-INTEGER cast.
constexpr const char* kRecognisedDml =
    "insert into T values (trim(:ID), :NAME, cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'), "
    ":AMOUNT, cast(:CODE as integer))";
// CAST over TRIM is not a staging column, so CODE failures are unpredicted.
constexpr const char* kUnrecognisedDml =
    "insert into T values (trim(:ID), :NAME, cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'), "
    ":AMOUNT, cast(trim(:CODE) as integer))";

struct Case {
  uint64_t seed;
  size_t rows;
  double error_rate;
  bool clustered;
  bool duplicates;
  const char* dml;
  uint64_t max_errors;
  int max_retries;
};

/// One generated row; an empty optional field is NULL.
using Record = std::vector<legacy::VartextField>;

/// `prefix` + `rest` by appending (GCC 12 -O3 reports a false -Wrestrict on
/// `"literal" + std::string&&`).
std::string Cat(std::string prefix, const std::string& rest) {
  prefix += rest;
  return prefix;
}

std::vector<Record> Generate(const Case& c) {
  common::Random rng(c.seed);
  std::vector<bool> bad(c.rows, false);
  if (c.clustered) {
    // Bursts of 2-8 consecutive bad rows, about error_rate of the total.
    size_t budget = static_cast<size_t>(c.error_rate * static_cast<double>(c.rows));
    while (budget > 0) {
      size_t start = rng.NextBounded(c.rows);
      size_t len = std::min<size_t>(budget, 2 + rng.NextBounded(7));
      for (size_t i = start; i < std::min(c.rows, start + len); ++i) bad[i] = true;
      budget -= len;
    }
  } else {
    for (size_t i = 0; i < c.rows; ++i) bad[i] = rng.NextBool(c.error_rate);
  }
  std::vector<Record> records;
  for (size_t i = 0; i < c.rows; ++i) {
    Record r = {{false, Cat("K", std::to_string(i))},
                {false, rng.NextAlnum(1 + rng.NextBounded(8))},
                {false, Cat(Cat("2012-0", std::to_string(1 + rng.NextBounded(9))),
                            Cat("-1", std::to_string(rng.NextBounded(10))))},
                {false, std::to_string(rng.NextInRange(-99999, 99999))},
                {false, std::to_string(rng.NextBounded(1000))}};
    if (rng.NextBool(0.05)) r[3] = {true, ""};  // NULLs that load fine
    if (bad[i]) {
      switch (rng.NextBounded(c.duplicates ? 6 : 5)) {
        case 0: r[0] = {true, ""}; break;                         // NULL key
        case 1: r[1] = {false, rng.NextAlnum(9 + rng.NextBounded(4))}; break;  // too long
        case 2: r[2] = {false, Cat("xx", rng.NextAlnum(8))}; break;  // bad date
        case 3: r[3] = {false, Cat("4x", rng.NextAlnum(3))}; break;  // not a number
        case 4: r[4] = {false, Cat("c", rng.NextAlnum(4))}; break;   // CODE
        default:                                                  // duplicate key
          if (i > 0) r[0] = records[rng.NextBounded(i)][0];
          break;
      }
    }
    records.push_back(std::move(r));
  }
  return records;
}

struct Outcome {
  DmlApplyResult result;
  std::vector<std::string> target;  // sorted
  std::vector<std::string> et;      // in order
  std::vector<std::string> uv;      // in order
};

std::vector<std::string> Rows(cdw::CdwServer* cdw, const std::string& table) {
  std::vector<std::string> out;
  auto t = cdw->catalog()->GetTable(table).ValueOrDie();
  for (size_t r = 0; r < t->num_rows(); ++r) {
    std::string line;
    for (const auto& v : t->GetRow(r)) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  return out;
}

Outcome ApplyStaged(const Case& c, const std::vector<Record>& records,
                    cdw::StagingFormat staging, ErrorIsolation isolation) {
  Outcome out;
  const Schema layout = Layout();
  cloud::ObjectStore store;
  cdw::CdwServer cdw(&store);
  EXPECT_TRUE(cdw.ExecuteSql(kTargetDdl).ok());
  EXPECT_TRUE(cdw.catalog()->CreateTable("STG", MakeStagingSchema(layout).ValueOrDie()).ok());
  EXPECT_TRUE(cdw.catalog()->CreateTable("T_ET", MakeEtErrorSchema()).ok());
  EXPECT_TRUE(cdw.catalog()->CreateTable("T_UV", MakeUvErrorSchema(layout)).ok());

  auto converter = DataConverter::Create(layout, legacy::DataFormat::kVartext, kDelimiter, {},
                                         staging);
  EXPECT_TRUE(converter.ok()) << converter.status().ToString();
  constexpr size_t kChunkRows = 40;
  for (size_t first = 0; first < records.size(); first += kChunkRows) {
    const size_t last = std::min(records.size(), first + kChunkRows);
    common::ByteBuffer payload;
    for (size_t i = first; i < last; ++i) {
      EXPECT_TRUE(legacy::EncodeVartextRecord(records[i], kDelimiter, &payload).ok());
    }
    ConversionInput input;
    input.order_index = first / kChunkRows;
    input.first_row_number = first + 1;
    input.chunk.row_count = static_cast<uint32_t>(last - first);
    input.chunk.payload = payload.vector();
    auto converted = converter->Convert(input);
    EXPECT_TRUE(converted.ok()) << converted.status().ToString();
    EXPECT_TRUE(converted->errors.empty());
    const std::string key = Cat(Cat("stg/part_", std::to_string(input.order_index)),
                                std::string(cdw::StagingFileExtension(staging)));
    EXPECT_TRUE(store.Put(key, converted->csv.AsSlice()).ok());
  }
  cdw::CopyOptions copy;
  copy.format = staging == cdw::StagingFormat::kBinary ? cdw::CopyFormat::kBinary
                                                       : cdw::CopyFormat::kCsv;
  auto copied = cdw.CopyInto("STG", "stg/", copy);
  EXPECT_TRUE(copied.ok() && *copied == records.size()) << copied.status().ToString();

  auto dml = sql::ParseStatement(c.dml).ValueOrDie();
  AdaptiveOptions options;
  options.max_errors = c.max_errors;
  options.max_retries = c.max_retries;
  options.isolation = isolation;
  AdaptiveDmlApplier applier(&cdw, dml.get(), layout, "STG", "T", "T_ET", "T_UV", options);
  auto applied = applier.Apply(1, records.size());
  EXPECT_TRUE(applied.ok()) << applied.status().ToString();
  if (applied.ok()) out.result = *applied;
  out.target = Rows(&cdw, "T");
  std::sort(out.target.begin(), out.target.end());
  out.et = Rows(&cdw, "T_ET");
  out.uv = Rows(&cdw, "T_UV");
  return out;
}

void ExpectSameOutcome(const Outcome& planned, const Outcome& halving, const std::string& what) {
  EXPECT_EQ(planned.target, halving.target) << what;
  EXPECT_EQ(planned.et, halving.et) << what;
  EXPECT_EQ(planned.uv, halving.uv) << what;
  const DmlApplyResult& p = planned.result;
  const DmlApplyResult& h = halving.result;
  EXPECT_EQ(p.rows_inserted, h.rows_inserted) << what;
  EXPECT_EQ(p.rows_updated, h.rows_updated) << what;
  EXPECT_EQ(p.rows_deleted, h.rows_deleted) << what;
  EXPECT_EQ(p.et_errors, h.et_errors) << what;
  EXPECT_EQ(p.uv_errors, h.uv_errors) << what;
  EXPECT_EQ(p.range_errors, h.range_errors) << what;
  EXPECT_EQ(h.suspects, 0u) << what;
  EXPECT_EQ(h.plan_fallbacks, 0u) << what;
}

/// The 48 differential cases: error rate, spread, duplicates and DML follow
/// the seed; row count, max_errors and max_retries are drawn.
std::vector<Case> Cases() {
  const double kRates[] = {0.0, 0.01, 0.05, 0.2};
  const uint64_t kMaxErrors[] = {1, 2, 5, 100};
  const int kMaxRetries[] = {64, 2, 3};
  common::Random pick(20260419);
  std::vector<Case> cases;
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    Case c;
    c.seed = seed;
    c.rows = 60 + pick.NextBounded(140);
    c.error_rate = kRates[seed % 4];
    c.clustered = (seed / 4) % 2 == 1;
    c.duplicates = (seed / 8) % 2 == 1;
    c.dml = (seed / 16) % 2 == 1 ? kUnrecognisedDml : kRecognisedDml;
    c.max_errors = kMaxErrors[pick.NextBounded(4)];
    c.max_retries = kMaxRetries[pick.NextBounded(3)];
    cases.push_back(c);
  }
  return cases;
}

TEST(ErrorIsolationDiffTest, PlannedMatchesHalving) {
  uint64_t cases = 0;
  uint64_t planned_clean = 0;  // cases the plan finished without halving
  uint64_t rewinds = 0;        // cases where a clean run failed
  uint64_t fewer = 0;          // cases with fewer statements than halving
  for (const Case& c : Cases()) {
    const uint64_t seed = c.seed;
    const std::vector<Record> records = Generate(c);
    for (cdw::StagingFormat staging : {cdw::StagingFormat::kCsv, cdw::StagingFormat::kBinary}) {
      std::ostringstream what;
      what << "seed " << seed << " rows " << c.rows << " rate " << c.error_rate
           << (c.clustered ? " clustered" : " spread") << (c.duplicates ? " dups" : "")
           << " max_errors " << c.max_errors << " max_retries " << c.max_retries
           << (staging == cdw::StagingFormat::kBinary ? " HQB1" : " CSV") << "\n  " << c.dml;
      Outcome planned = ApplyStaged(c, records, staging, ErrorIsolation::kPlanned);
      Outcome halving = ApplyStaged(c, records, staging, ErrorIsolation::kHalving);
      ExpectSameOutcome(planned, halving, what.str());
      ++cases;
      if (planned.result.suspects > 0 && planned.result.plan_fallbacks == 0) ++planned_clean;
      if (planned.result.suspects > 0 && planned.result.plan_fallbacks > 0) ++rewinds;
      if (planned.result.statements_issued < halving.result.statements_issued) ++fewer;
    }
  }
  EXPECT_EQ(cases, 96u);
  // Both ways out of the plan are exercised, and the plan pays off.
  EXPECT_GT(planned_clean, 10u);
  EXPECT_GT(rewinds, 10u);
  EXPECT_GT(fewer, 20u);
}

/// FNV-1a 64 over the rows, each followed by a newline.
uint64_t Digest(const std::vector<std::string>& rows) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](char ch) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  };
  for (const std::string& row : rows) {
    for (char ch : row) mix(ch);
    mix('\n');
  }
  return h;
}

/// One golden line: the statement accounting, the counts and digests of the
/// target (sorted), ET and UV rows of one run.
std::string GoldenLine(const Case& c, cdw::StagingFormat staging, ErrorIsolation isolation,
                       const Outcome& out) {
  const DmlApplyResult& r = out.result;
  std::ostringstream line;
  line << "seed=" << c.seed << (staging == cdw::StagingFormat::kBinary ? " HQB1" : " CSV")
       << (isolation == ErrorIsolation::kPlanned ? " planned" : " halving")
       << " statements=" << r.statements_issued << " suspects=" << r.suspects
       << " plan_fallbacks=" << r.plan_fallbacks << " rows_inserted=" << r.rows_inserted
       << " et_errors=" << r.et_errors << " uv_errors=" << r.uv_errors
       << " range_errors=" << r.range_errors << std::hex << " target=" << Digest(out.target)
       << " et=" << Digest(out.et) << " uv=" << Digest(out.uv);
  return line.str();
}

/// Both strategies' statement accounting and tables, frozen in
/// testdata/error_isolation_golden.txt: the differential above compares the
/// tables only, so a search that reaches them by other statements passes it.
/// HQ_UPDATE_GOLDEN=1 rewrites the file instead of comparing.
TEST(ErrorIsolationDiffTest, MatchesFrozenAccounting) {
  const std::string path = std::string(HQ_HYPERQ_TESTDATA_DIR) + "/error_isolation_golden.txt";
  std::vector<std::string> lines;
  for (const Case& c : Cases()) {
    const std::vector<Record> records = Generate(c);
    for (cdw::StagingFormat staging : {cdw::StagingFormat::kCsv, cdw::StagingFormat::kBinary}) {
      for (ErrorIsolation isolation : {ErrorIsolation::kPlanned, ErrorIsolation::kHalving}) {
        lines.push_back(
            GoldenLine(c, staging, isolation, ApplyStaged(c, records, staging, isolation)));
      }
    }
  }
  ASSERT_EQ(lines.size(), 192u);
  if (std::getenv("HQ_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    for (const std::string& line : lines) out << line << "\n";
    ASSERT_TRUE(out.good()) << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(golden.size(), lines.size());
  for (size_t i = 0; i < lines.size(); ++i) EXPECT_EQ(lines[i], golden[i]);
}

}  // namespace
}  // namespace hyperq::core

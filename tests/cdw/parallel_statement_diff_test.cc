#include <algorithm>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cdw/catalog.h"
#include "cdw/copy.h"
#include "cdw/executor.h"
#include "cdw/statement_workers.h"
#include "cloudstore/compression.h"
#include "cloudstore/object_store.h"
#include "common/random.h"
#include "hyperq/data_converter.h"
#include "legacy/row_format.h"
#include "obs/metrics.h"
#include "types/date.h"

/// Seeded differential of the parallel statements against the serial path:
/// every COPY and INSERT…SELECT runs once with one statement worker and once
/// with four, and the two runs must agree on the status code and message,
/// the table contents, the COPY ledger and stats, rows_scanned and
/// rows_inserted. Failing records and rows land at random objects and rows,
/// so the reported error is the lowest failing one only if the merge picks
/// it the way the serial loop does.

namespace hyperq::cdw {
namespace {

using common::Slice;
using types::Field;
using types::Schema;
using types::TypeDesc;
using types::Value;

constexpr size_t kParallelWorkers = 4;

/// Every cell of `table`, one string per row.
std::vector<std::string> Contents(const Table& table) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.append(table.At(r, c).is_null() ? "<null>" : table.At(r, c).ToString());
      row.append("|");
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Concatenation by appends: GCC 12 at -O3 raises a false -Wrestrict on
/// `"literal" + std::string`, which breaks the Release -Werror build.
std::string Cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (std::string_view part : parts) out.append(part);
  return out;
}

std::string Describe(const common::Status& status) {
  return status.ok() ? "OK" : status.ToString();
}

// --- COPY ---------------------------------------------------------------------

Schema CopyLayout() {
  Schema layout;
  layout.AddField(Field("ID", TypeDesc::Int32()));
  layout.AddField(Field("NAME", TypeDesc::Varchar(40)));
  return layout;
}

/// An HQB1 object of `rows` rows numbered from `first`, written by the real
/// converter.
std::vector<uint8_t> Hqb1Object(common::Random& rng, uint32_t first, uint32_t rows) {
  const Schema layout = CopyLayout();
  legacy::BinaryRowCodec codec(layout);
  common::ByteBuffer payload;
  for (uint32_t i = 0; i < rows; ++i) {
    types::Row row;
    row.push_back(Value::Int(static_cast<int64_t>(first + i)));
    row.push_back(rng.NextBool(0.1) ? Value::Null() : Value::String(rng.NextAlnum(1 + i % 39)));
    EXPECT_TRUE(codec.EncodeRow(row, &payload).ok());
  }
  auto converter = core::DataConverter::Create(layout, legacy::DataFormat::kBinary, '|', {},
                                               StagingFormat::kBinary)
                       .ValueOrDie();
  core::ConversionInput input;
  input.first_row_number = first;
  input.chunk.row_count = rows;
  input.chunk.payload = payload.vector();
  auto converted = converter.Convert(input);
  EXPECT_TRUE(converted.ok()) << converted.status().ToString();
  return converted->csv.vector();
}

/// A CSV object of `rows` rows numbered from `first`; with `bad`, one record
/// at a random row fails: a non-numeric ID, a NULL row number or a missing
/// field. The failing text names the row, so two different failing records
/// report different messages.
std::string CsvObject(common::Random& rng, uint32_t first, uint32_t rows, bool bad) {
  const uint32_t bad_row = bad ? static_cast<uint32_t>(rng.NextBounded(rows)) : rows;
  const uint64_t kind = rng.NextBounded(3);
  std::string text;
  for (uint32_t i = 0; i < rows; ++i) {
    const std::string id = std::to_string(first + i);
    if (i == bad_row && kind == 0) {
      text += Cat({"x", id, ",bad,", id, "\n"});
    } else if (i == bad_row && kind == 1) {
      text += Cat({id, ",nul,\n"});
    } else if (i == bad_row) {
      text += Cat({id, "\n"});
    } else {
      text += Cat({id, ",", rng.NextAlnum(1 + i % 39), ",", id, "\n"});
    }
  }
  return text;
}

struct CopyRun {
  std::string status;
  uint64_t rows = 0;
  std::vector<std::string> contents;
  std::map<std::string, uint64_t> ledger;
  CopyStats stats;
};

CopyRun RunCopy(const cloud::ObjectStore& store, const std::map<std::string, uint64_t>& ledger,
                CopyFormat format, StatementWorkers* workers) {
  Table table("STG", core::MakeStagingSchema(CopyLayout()).ValueOrDie());
  CopyRun run;
  run.ledger = ledger;
  CopyOptions options;
  options.format = format;
  auto rows = CopyFromStore(&table, store, "s/", options, &run.ledger, &run.stats, workers);
  run.status = Describe(rows.status());
  run.rows = rows.ok() ? *rows : 0;
  run.contents = Contents(table);
  return run;
}

TEST(ParallelStatementDiffTest, CopyMatchesSerial) {
  constexpr int kCases = 30;
  obs::Counter taken;
  StatementWorkers serial(1);
  StatementWorkers parallel(kParallelWorkers, &taken);
  int failures = 0;
  int binary_cases = 0;
  for (int seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE(Cat({"seed ", std::to_string(seed)}));
    common::Random rng(static_cast<uint64_t>(seed));
    cloud::ObjectStore store;
    // CSV and HQB1 objects under one prefix (kAuto sniffs each), or only
    // HQB1 under FORMAT BINARY; a failing case breaks one to three objects.
    // Half the cases stage four to eight objects of more than
    // kMinParallelCopyBytes in all; the rest stage a few small ones.
    const CopyFormat format = rng.NextBool(0.2) ? CopyFormat::kBinary : CopyFormat::kAuto;
    const bool big = rng.NextBool(0.5);
    const size_t objects = big ? 4 + rng.NextBounded(5) : 1 + rng.NextBounded(4);
    const size_t bad_objects = rng.NextBool(0.5) ? 1 + rng.NextBounded(3) : 0;
    std::vector<bool> bad(objects, false);
    for (size_t b = 0; b < bad_objects; ++b) bad[rng.NextBounded(objects)] = true;
    std::map<std::string, uint64_t> ledger;
    uint32_t first = 1;
    for (size_t o = 0; o < objects; ++o) {
      const std::string key = Cat({"s/obj", std::to_string(o)});
      const auto rows = static_cast<uint32_t>(big ? 9000 + rng.NextBounded(6000)
                                                  : 1 + rng.NextBounded(3000));
      const bool binary = format == CopyFormat::kBinary || rng.NextBool(0.5);
      std::vector<uint8_t> bytes;
      if (binary) {
        bytes = Hqb1Object(rng, first, rows);
        // A corrupt HQB1 object: cut off at a random byte.
        if (bad[o]) bytes.resize(rng.NextBounded(bytes.size()));
        ++binary_cases;
      } else {
        const std::string text = CsvObject(rng, first, rows, bad[o]);
        bytes.assign(text.begin(), text.end());
      }
      if (rng.NextBool(0.3)) {
        common::ByteBuffer compressed;
        cloud::Compress(Slice(bytes.data(), bytes.size()), &compressed);
        bytes = compressed.vector();
      }
      ASSERT_TRUE(store.Put(key, Slice(bytes.data(), bytes.size())).ok());
      // A retried COPY: the ledger already holds some objects.
      if (rng.NextBool(0.15)) ledger[Cat({key, binary ? "#bin" : "#csv"})] = rows;
      first += rows;
    }
    const CopyRun want = RunCopy(store, ledger, format, &serial);
    const CopyRun got = RunCopy(store, ledger, format, &parallel);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.rows, want.rows);
    EXPECT_EQ(got.contents, want.contents);
    EXPECT_EQ(got.ledger, want.ledger);
    EXPECT_EQ(got.stats.binary_files, want.stats.binary_files);
    EXPECT_EQ(got.stats.binary_rows, want.stats.binary_rows);
    EXPECT_EQ(got.stats.binary_bytes, want.stats.binary_bytes);
    EXPECT_EQ(got.stats.csv_files, want.stats.csv_files);
    EXPECT_EQ(got.stats.csv_rows, want.stats.csv_rows);
    EXPECT_EQ(got.stats.csv_bytes, want.stats.csv_bytes);
    failures += want.status != "OK";
  }
  // The generator must reach both outcomes, both formats and the pool.
  EXPECT_GT(failures, kCases / 5);
  EXPECT_LT(failures, kCases - kCases / 5);
  EXPECT_GT(binary_cases, kCases / 2);
  EXPECT_GT(taken.value(), static_cast<uint64_t>(kCases / 4));
}

// --- INSERT…SELECT --------------------------------------------------------------

/// Source rows: ID counts from 1; A, B, D and W are clean text except at the
/// rows a case breaks; C is NULL at the rows a case nulls; K repeats another
/// row's key at the rows a case duplicates.
struct SourceSpec {
  size_t rows = 0;
  std::vector<size_t> bad_a;  ///< CAST(A AS INTEGER) fails: a SELECT error
  std::vector<size_t> bad_b;  ///< B into INTEGER fails: a staging cast error
  std::vector<size_t> null_c; ///< C into NOT NULL fails: a staging error
  std::vector<size_t> bad_d;  ///< TO_DATE(D, ...) fails: a SELECT error
  std::vector<size_t> bad_w;  ///< CAST(W AS INTEGER) in WHERE fails
  std::vector<size_t> dup_k;  ///< repeats the key of row 0
};

bool Marked(const std::vector<size_t>& rows, size_t r) {
  return std::find(rows.begin(), rows.end(), r) != rows.end();
}

void Populate(const SourceSpec& spec, size_t preloaded, Catalog* catalog) {
  Schema source;
  source.AddField(Field("ID", TypeDesc::Int64(), false));
  source.AddField(Field("K", TypeDesc::Int64()));
  source.AddField(Field("A", TypeDesc::Varchar(12)));
  source.AddField(Field("B", TypeDesc::Varchar(12)));
  source.AddField(Field("C", TypeDesc::Varchar(12)));
  source.AddField(Field("D", TypeDesc::Varchar(12)));
  source.AddField(Field("W", TypeDesc::Varchar(12)));
  TablePtr s = catalog->CreateTable("S", source).ValueOrDie();
  std::vector<std::vector<Value>> cols(source.num_fields());
  for (size_t r = 0; r < spec.rows; ++r) {
    const std::string n = std::to_string(r);
    cols[0].push_back(Value::Int(static_cast<int64_t>(r + 1)));
    cols[1].push_back(Value::Int(Marked(spec.dup_k, r) ? 1 : static_cast<int64_t>(r + 1)));
    cols[2].push_back(
        Value::String(Marked(spec.bad_a, r) ? Cat({"a", n}) : std::to_string(r % 977)));
    cols[3].push_back(
        Value::String(Marked(spec.bad_b, r) ? Cat({"b", n}) : std::to_string(r % 733)));
    cols[4].push_back(Marked(spec.null_c, r) ? Value::Null() : Value::String(Cat({"c", n})));
    cols[5].push_back(Value::String(Marked(spec.bad_d, r)
                                        ? Cat({"d", n})
                                        : Cat({"2020-01-", std::to_string(10 + r % 19)})));
    cols[6].push_back(
        Value::String(Marked(spec.bad_w, r) ? Cat({"w", n}) : std::to_string(r % 5)));
  }
  ASSERT_TRUE(s->Commit({.appended = std::move(cols)}).ok());

  Schema target;
  target.AddField(Field("K", TypeDesc::Int64()));
  target.AddField(Field("N", TypeDesc::Int32()));
  target.AddField(Field("BB", TypeDesc::Int32()));
  target.AddField(Field("C", TypeDesc::Varchar(12), false));
  target.AddField(Field("DT", TypeDesc::Date()));
  TablePtr t = catalog->CreateTable("T", target, {"K"}, /*unique_primary=*/true).ValueOrDie();
  std::vector<std::vector<Value>> stored(target.num_fields());
  for (size_t r = 0; r < preloaded; ++r) {
    // Keys past every source key, except that the last one collides.
    const auto key = static_cast<int64_t>(r + 1 == preloaded ? spec.rows : 1000000 + r);
    stored[0].push_back(Value::Int(key));
    stored[1].push_back(Value::Int(0));
    stored[2].push_back(Value::Null());
    stored[3].push_back(Value::String("pre"));
    stored[4].push_back(Value::Null());
  }
  ASSERT_TRUE(t->Commit({.appended = std::move(stored)}).ok());
}

std::vector<size_t> RandomRows(common::Random& rng, size_t rows) {
  std::vector<size_t> out;
  if (rng.NextBool(0.6)) return out;
  const uint64_t count = 1 + rng.NextBounded(3);
  for (uint64_t i = 0; i < count; ++i) out.push_back(rng.NextBounded(rows));
  return out;
}

struct InsertRun {
  std::string status;
  uint64_t rows_inserted = 0;
  uint64_t rows_scanned = 0;
  std::vector<std::string> contents;
};

InsertRun RunInsert(const SourceSpec& spec, size_t preloaded, const std::string& sql,
                    const ExecOptions& options, StatementWorkers* workers) {
  Catalog catalog;
  Populate(spec, preloaded, &catalog);
  Executor executor(&catalog, workers);
  InsertRun run;
  auto result = executor.ExecuteSql(sql, options);
  run.status = Describe(result.status());
  run.rows_inserted = result.ok() ? result->rows_inserted : 0;
  run.rows_scanned = executor.rows_scanned();
  run.contents = Contents(*catalog.GetTable("T").ValueOrDie());
  return run;
}

TEST(ParallelStatementDiffTest, InsertSelectMatchesSerial) {
  constexpr int kCases = 30;
  obs::Counter taken;
  StatementWorkers serial(1);
  StatementWorkers parallel(kParallelWorkers, &taken);
  int select_errors = 0;
  int other_errors = 0;
  int successes = 0;
  uint64_t large_cases = 0;
  for (int seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE(Cat({"seed ", std::to_string(seed)}));
    common::Random rng(static_cast<uint64_t>(seed) * 7919);
    // Most cases span two to four morsels; the rest stay below the
    // threshold and must not take the pool.
    SourceSpec spec;
    const bool large = rng.NextBool(0.75);
    spec.rows = large ? kMorselRows * kMinParallelParts + rng.NextBounded(2 * kMorselRows)
                      : 1 + rng.NextBounded(kMorselRows);
    large_cases += large;
    spec.bad_a = RandomRows(rng, spec.rows);
    spec.bad_b = RandomRows(rng, spec.rows);
    spec.null_c = RandomRows(rng, spec.rows);
    spec.bad_d = RandomRows(rng, spec.rows);
    spec.bad_w = RandomRows(rng, spec.rows);
    spec.dup_k = RandomRows(rng, spec.rows);
    const size_t preloaded = rng.NextBool(0.3) ? 1 + rng.NextBounded(5) : 0;

    const char* lists[] = {"", " (K, N, BB, C, DT)", " (K, N, BB, C)", " (K, N, NOPE, C, DT)"};
    const char* n_items[] = {"CAST(A AS INTEGER)", "7"};
    const char* d_items[] = {"TO_DATE(D, 'YYYY-MM-DD')", "NULL"};
    const size_t lo = rng.NextBounded(spec.rows) + 1;
    const size_t hi = lo + rng.NextBounded(spec.rows);
    const std::string from = std::to_string(lo);
    const std::string to = std::to_string(hi);
    const std::string wheres[] = {
        "",
        Cat({" WHERE ID BETWEEN ", from, " AND ", to}),
        Cat({" WHERE ID > ", from}),
        " WHERE CAST(W AS INTEGER) <> 3",
        Cat({" WHERE ID NOT BETWEEN ", from, " AND ", to, " AND CAST(W AS INTEGER) <> 1"}),
    };
    const double list_pick = rng.NextDouble();
    const char* list = lists[list_pick < 0.8 ? 0 : list_pick < 0.9 ? 1 : 2 + rng.NextBounded(2)];
    const std::string sql =
        Cat({"INSERT INTO T", list, " SELECT K, ", n_items[rng.NextBounded(2)], ", B, C, ",
             d_items[rng.NextBounded(2)], " FROM S", wheres[rng.NextBounded(std::size(wheres))]});
    ExecOptions options;
    options.enforce_unique_primary = rng.NextBool(0.5);
    SCOPED_TRACE(sql);

    const uint64_t taken_before = taken.value();
    const InsertRun want = RunInsert(spec, preloaded, sql, options, &serial);
    const InsertRun got = RunInsert(spec, preloaded, sql, options, &parallel);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.rows_inserted, want.rows_inserted);
    EXPECT_EQ(got.rows_scanned, want.rows_scanned);
    EXPECT_EQ(got.contents, want.contents);
    // Exactly the statements of two or more morsels take the pool.
    EXPECT_EQ(taken.value() - taken_before, large ? 1u : 0u);
    if (want.status == "OK") {
      ++successes;
    } else if (want.rows_scanned < spec.rows) {
      ++select_errors;  // the serial loop stopped early: a SELECT error
    } else {
      ++other_errors;
    }
  }
  // The generator must reach every outcome, or the comparison proves little.
  EXPECT_GT(successes, kCases / 10);
  EXPECT_GT(select_errors, kCases / 10);
  EXPECT_GT(other_errors, kCases / 10);
  EXPECT_EQ(taken.value(), large_cases);
}

}  // namespace
}  // namespace hyperq::cdw

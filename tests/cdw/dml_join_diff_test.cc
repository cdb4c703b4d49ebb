/// Seeded differential: the join planner's choice (hash path when eligible)
/// against the nested-loop oracle, over random MERGE, UPDATE…FROM and
/// DELETE…USING statements. Every statement must leave identical target
/// contents, identical counts and an identical Status (code and message).
/// The same cases, plus plain UPDATE, DELETE and INSERT statements, are also
/// frozen statement by statement in testdata/dml_golden.txt.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cdw/join_dml.h"
#include "common/random.h"
#include "sql/parser.h"
#include "table_rows.h"
#include "types/date.h"

namespace hyperq::cdw {
namespace {

using types::Field;
using types::Row;
using types::Schema;
using types::TypeDesc;
using types::Value;

constexpr int kCases = 600;

enum class Family { kInt, kVarchar, kDate };

/// One random pair of tables plus the statements to run against them.
struct Case {
  Family family = Family::kInt;
  bool two_keys = false;
  bool cross_family = false;  ///< source K1 is VARCHAR against an INT target
  bool key_not_null = false;
  bool unique_primary = false;
  bool enforce = false;
  std::vector<Row> target_rows;
  std::vector<Row> source_rows;
  std::vector<std::string> statements;
};

TypeDesc KeyType(Family family, bool target_side) {
  switch (family) {
    case Family::kInt:
      return target_side ? TypeDesc::Int32() : TypeDesc::Int64();  // any INT width
    case Family::kVarchar:
      return TypeDesc::Varchar(6);
    case Family::kDate:
      return TypeDesc::Date();
  }
  return TypeDesc::Int64();
}

Value KeyValue(common::Random& rng, Family family) {
  if (rng.NextBool(0.15)) return Value::Null();
  const int64_t k = rng.NextInRange(0, 5);
  switch (family) {
    case Family::kInt:
      return Value::Int(k);
    case Family::kVarchar:
      return Value::String(rng.NextBool(0.5) ? std::to_string(k) : std::string(1, static_cast<char>('a' + k)));
    case Family::kDate:
      return Value::Date(static_cast<types::DateDays>(15000 + k));
  }
  return Value::Null();
}

/// A W cell: usually a small integer as text, sometimes text that makes
/// CAST(W AS INTEGER) raise ConversionError.
Value TextValue(common::Random& rng, double bad_rate) {
  if (rng.NextBool(0.1)) return Value::Null();
  if (rng.NextBool(bad_rate)) return Value::String(rng.NextBool(0.5) ? "x7" : "1e");
  return Value::String(std::to_string(rng.NextInRange(0, 99)));
}

Value SmallInt(common::Random& rng) {
  if (rng.NextBool(0.1)) return Value::Null();
  return Value::Int(rng.NextInRange(0, 9));
}

std::string Pick(common::Random& rng, const std::vector<std::string>& pool) {
  return pool[rng.NextBounded(pool.size())];
}

/// The ON / WHERE predicate: equi keys, one-sided residuals and, now and
/// then, a conjunct that forces the nested loop, in random order.
std::string MakePredicate(common::Random& rng, const Case& c, size_t source_rows) {
  std::vector<std::string> conjuncts;
  auto eq = [&](const std::string& col) {
    return rng.NextBool(0.5) ? "T." + col + " = S." + col : "S." + col + " = T." + col;
  };
  conjuncts.push_back(eq("K1"));
  if (c.two_keys) conjuncts.push_back(eq("K2"));
  const int64_t lo = rng.NextInRange(0, static_cast<int64_t>(source_rows));
  const int64_t hi = lo + rng.NextInRange(0, static_cast<int64_t>(source_rows));
  const std::vector<std::string> source_pool = {
      "S.V > 3",
      "S.V IS NOT NULL",
      "CAST(S.W AS INTEGER) < 70",
      "S.HQ_ROWNUM BETWEEN " + std::to_string(lo) + " AND " + std::to_string(hi),
      "HQ_ROWNUM <> 2",
      "S.W <> '7'"};
  const std::vector<std::string> target_pool = {"T.V <> 5", "CAST(T.W AS INTEGER) > 10",
                                                "T.K1 IS NOT NULL", "1 = 1"};
  const std::vector<std::string> nested_loop_pool = {"T.V <= S.V", "V > 2", "T.NOPE = 1",
                                                     "T.K1 = S.K1 OR T.V = S.V"};
  for (int n = static_cast<int>(rng.NextBounded(3)); n > 0; --n) {
    conjuncts.push_back(Pick(rng, source_pool));
  }
  for (int n = static_cast<int>(rng.NextBounded(3)); n > 0; --n) {
    conjuncts.push_back(Pick(rng, target_pool));
  }
  if (rng.NextBool(0.1)) conjuncts.push_back(Pick(rng, nested_loop_pool));
  for (size_t i = conjuncts.size(); i > 1; --i) {
    std::swap(conjuncts[i - 1], conjuncts[rng.NextBounded(i)]);
  }
  std::string out;
  for (const auto& conjunct : conjuncts) out += (out.empty() ? "" : " AND ") + conjunct;
  return out;
}

Case MakeCase(uint64_t seed) {
  common::Random rng(seed);
  Case c;
  c.family = static_cast<Family>(rng.NextBounded(3));
  c.two_keys = rng.NextBool(0.3);
  c.cross_family = c.family == Family::kInt && rng.NextBool(0.1);
  c.key_not_null = rng.NextBool(0.3);
  c.unique_primary = rng.NextBool(0.5);
  c.enforce = rng.NextBool(0.5);
  const double bad_rate = rng.NextBool(0.5) ? 0.0 : 0.08;
  const size_t target_rows = rng.NextBounded(13);
  const size_t source_rows = rng.NextBounded(13);
  for (size_t r = 0; r < target_rows; ++r) {
    Value k1 = KeyValue(rng, c.family);
    if (c.key_not_null && k1.is_null()) k1 = KeyValue(rng, c.family);
    if (c.key_not_null && k1.is_null()) continue;
    c.target_rows.push_back(
        Row{k1, KeyValue(rng, c.family), SmallInt(rng), TextValue(rng, bad_rate)});
  }
  for (size_t r = 0; r < source_rows; ++r) {
    Value k1 = c.cross_family ? Value::String(std::to_string(rng.NextInRange(0, 5)))
                              : KeyValue(rng, c.family);
    c.source_rows.push_back(Row{k1, KeyValue(rng, c.family), SmallInt(rng),
                                TextValue(rng, bad_rate), Value::Int(static_cast<int64_t>(r) + 1)});
  }
  // Rarely, a stored value of the wrong kind for its column.
  if (!c.source_rows.empty() && c.family == Family::kInt && !c.cross_family && rng.NextBool(0.05)) {
    c.source_rows[rng.NextBounded(c.source_rows.size())][0] = Value::String("3");
  }

  auto pred = [&] { return MakePredicate(rng, c, c.source_rows.size()); };
  std::string source = "SRC S";
  if (rng.NextBool(0.4)) {
    const int64_t lo = rng.NextInRange(0, 6);
    source = "(SELECT * FROM SRC WHERE HQ_ROWNUM BETWEEN " + std::to_string(lo) + " AND " +
             std::to_string(lo + rng.NextInRange(0, 8)) + ") S";
  }
  const std::string update_v = rng.NextBool(0.3) ? "CAST(S.W AS INTEGER)" : "S.V";
  std::string merge = "MERGE INTO TGT T USING " + source + " ON " + pred();
  if (rng.NextBool(0.85)) merge += " WHEN MATCHED THEN UPDATE SET V = " + update_v + ", W = S.W";
  if (rng.NextBool(0.85)) {
    merge += " WHEN NOT MATCHED THEN INSERT (K1, K2, V, W) VALUES (S.K1, S.K2, " +
             std::string(rng.NextBool(0.3) ? "CAST(S.W AS INTEGER)" : "S.V") + ", S.W)";
  }
  c.statements.push_back(merge);
  const std::string set_key = rng.NextBool(0.2) ? "K1 = S.K2, " : "";
  c.statements.push_back("UPDATE TGT T SET " + set_key + "V = " + update_v +
                         ", W = S.W FROM SRC S WHERE " + pred());
  c.statements.push_back("DELETE FROM TGT T USING SRC S WHERE " + pred());
  return c;
}

void Populate(const Case& c, Catalog* catalog) {
  Schema target;
  target.AddField(Field("K1", KeyType(c.family, true), !c.key_not_null));
  target.AddField(Field("K2", KeyType(c.family, true)));
  target.AddField(Field("V", TypeDesc::Int32()));
  target.AddField(Field("W", TypeDesc::Varchar(8)));
  std::vector<std::string> pk = {"K1"};
  if (c.two_keys) pk.push_back("K2");
  auto t = catalog->CreateTable("TGT", target, pk, c.unique_primary);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_TRUE(AppendRows(t->get(), c.target_rows).ok());

  Schema source;
  source.AddField(Field("K1", c.cross_family ? TypeDesc::Varchar(6) : KeyType(c.family, false)));
  source.AddField(Field("K2", KeyType(c.family, false)));
  source.AddField(Field("V", TypeDesc::Int64()));
  source.AddField(Field("W", TypeDesc::Varchar(8)));
  source.AddField(Field("HQ_ROWNUM", TypeDesc::Int64()));
  auto s = catalog->CreateTable("SRC", source);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_TRUE(AppendRows(s->get(), c.source_rows).ok());
}

std::vector<Row> Contents(Catalog* catalog) {
  auto table = catalog->GetTable("TGT");
  std::vector<Row> rows;
  for (size_t r = 0; r < (*table)->num_rows(); ++r) rows.push_back((*table)->GetRow(r));
  return rows;
}

TEST(DmlJoinDiffTest, PlannerMatchesNestedLoopOracle) {
  int hash_runs = 0;
  int nested_loop_runs = 0;
  int errors = 0;
  for (uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = MakeCase(seed);
    Catalog planned;
    Catalog oracle;
    Populate(c, &planned);
    Populate(c, &oracle);
    Executor executor(&planned);
    ExecOptions options;
    options.enforce_unique_primary = c.enforce;
    for (const std::string& sql : c.statements) {
      SCOPED_TRACE(sql);
      auto stmt = sql::ParseStatement(sql);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
      common::Result<ExecResult> got = executor.Execute(**stmt, options);
      common::Result<ExecResult> want = ExecuteOnNestedLoop(&oracle, **stmt, options);
      ASSERT_EQ(got.ok(), want.ok()) << (got.ok() ? want.status() : got.status()).ToString();
      if (!got.ok()) {
        EXPECT_EQ(got.status().code(), want.status().code());
        EXPECT_EQ(got.status().message(), want.status().message());
        ++errors;
      } else {
        EXPECT_EQ(got->rows_inserted, want->rows_inserted);
        EXPECT_EQ(got->rows_updated, want->rows_updated);
        EXPECT_EQ(got->rows_deleted, want->rows_deleted);
        EXPECT_EQ(want->join_path, JoinPath::kNestedLoop);
        (got->join_path == JoinPath::kHash ? hash_runs : nested_loop_runs)++;
      }
      ASSERT_EQ(Contents(&planned), Contents(&oracle));
    }
  }
  // The generator must reach every outcome, or the comparison proves little.
  EXPECT_GT(hash_runs, kCases / 2);
  EXPECT_GT(nested_loop_runs, kCases / 20);
  EXPECT_GT(errors, kCases / 20);
}

/// A literal of `v` in SQL text; a date is written as its ISO string, which
/// the INSERT casts to the column type.
std::string Literal(const Value& v) {
  if (v.is_null()) return "NULL";
  if (!v.is_string() && !v.is_date()) return v.ToString();
  // Built with append calls: GCC 12 at -O3 raises a false -Wrestrict on
  // `"'" + s + "'"`, which breaks the Release -Werror build.
  std::string quoted = "'";
  quoted.append(v.is_string() ? v.string_value() : types::FormatDateIso(v.date_days()));
  quoted.append("'");
  return quoted;
}

/// Plain statements over the case's tables: UPDATE…WHERE (now and then
/// swapping the two keys or assigning NULL), INSERT…SELECT, INSERT…VALUES
/// and DELETE…WHERE. Drawn from their own generator, so MakeCase's stream,
/// and with it every join statement, stays as it is.
std::vector<std::string> PlainStatements(uint64_t seed, const Case& c) {
  common::Random rng(seed * 7919 + 17);
  const std::vector<std::string> where_pool = {
      "V <> 5", "CAST(W AS INTEGER) > 10", "K1 IS NOT NULL", "1 = 1", "V BETWEEN 2 AND 6",
      "K2 IS NULL"};
  auto where = [&] { return Pick(rng, where_pool); };
  std::vector<std::string> out;
  std::string set = Pick(rng, {"", "", "K1 = K2, K2 = K1, ", "K1 = K2, ", "K1 = NULL, "});
  out.push_back("UPDATE TGT SET " + set + "V = " +
                Pick(rng, {"V + 1", "CAST(W AS INTEGER)", "NULL"}) + ", W = " +
                Pick(rng, {"W", "'7'", "NULL"}) + " WHERE " + where());
  out.push_back("INSERT INTO TGT (K1, K2, V, W) SELECT K1, K2, " +
                Pick(rng, {"V", "CAST(W AS INTEGER)"}) + ", W FROM SRC WHERE HQ_ROWNUM <= " +
                std::to_string(rng.NextInRange(0, 6)));
  std::string values;
  for (int64_t n = rng.NextInRange(1, 3); n > 0; --n) {
    values += std::string(values.empty() ? "" : ", ") + "(" + Literal(KeyValue(rng, c.family)) +
              ", " + Literal(KeyValue(rng, c.family)) + ", " + Literal(SmallInt(rng)) + ", " +
              Literal(TextValue(rng, 0.1)) + ")";
  }
  out.push_back("INSERT INTO TGT VALUES " + values);
  out.push_back("DELETE FROM TGT WHERE " + Pick(rng, {"CAST(W AS INTEGER) < 50", "K1 IS NULL",
                                                      "V BETWEEN 2 AND 6", "1 = 0"}));
  return out;
}

/// FNV-1a 64 over the target's cells in storage order.
uint64_t Digest(const Table& table) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& text) {
    for (char ch : text) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ULL;
    }
  };
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) mix(table.At(r, c).ToString() + "|");
    mix("\n");
  }
  return h;
}

/// "1" when PrimaryKeyCount answers every stored key with its multiplicity
/// and every `probes` key that is not stored with 0, "0" when not, "-" when
/// the table keeps no key index.
std::string IndexAgrees(const Table& table, const std::vector<Row>& probes) {
  if (!table.unique_primary()) return "-";
  std::map<Row, size_t, RowLess> stored;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    ++stored[table.KeyOf([&](size_t c) { return table.At(r, c); })];
  }
  for (const auto& [key, count] : stored) {
    if (table.PrimaryKeyCount(key) != count) return "0";
  }
  for (const Row& key : probes) {
    if (stored.count(key) == 0 && table.PrimaryKeyCount(key) != 0) return "0";
  }
  return "1";
}

/// Every statement of every case, run by the planner, frozen in
/// testdata/dml_golden.txt: the status code and message, the row counts,
/// rows_scanned, the join path, a digest of the target in storage order and
/// whether the key index agrees with the stored keys. The join statements run
/// in one catalog and the plain ones in a second, freshly populated one.
/// HQ_UPDATE_GOLDEN=1 rewrites the file instead of comparing.
TEST(DmlJoinDiffTest, MatchesFrozenResults) {
  const std::string path = std::string(HQ_CDW_TESTDATA_DIR) + "/dml_golden.txt";
  std::vector<std::string> lines;
  for (uint64_t seed = 1; seed <= kCases; ++seed) {
    const Case c = MakeCase(seed);
    std::vector<Row> probes;
    for (const std::vector<Row>* rows : {&c.target_rows, &c.source_rows}) {
      for (const Row& row : *rows) {
        probes.push_back(c.two_keys ? Row{row[0], row[1]} : Row{row[0]});
      }
    }
    ExecOptions options;
    options.enforce_unique_primary = c.enforce;
    for (const std::vector<std::string>& statements : {c.statements, PlainStatements(seed, c)}) {
      Catalog catalog;
      Populate(c, &catalog);
      Executor executor(&catalog);
      const Table& target = **catalog.GetTable("TGT");
      for (const std::string& sql : statements) {
        auto stmt = sql::ParseStatement(sql);
        ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
        common::Result<ExecResult> got = executor.Execute(**stmt, options);
        const ExecResult counts = got.ok() ? *got : ExecResult{};
        std::ostringstream line;
        line << "seed=" << seed << " " << common::StatusCodeName(got.status().code()) << " \""
             << got.status().message() << "\" ins=" << counts.rows_inserted
             << " upd=" << counts.rows_updated << " del=" << counts.rows_deleted
             << " scanned=" << executor.rows_scanned()
             << " path=" << static_cast<int>(counts.join_path) << " rows=" << target.num_rows()
             << " index=" << IndexAgrees(target, probes) << std::hex
             << " target=" << Digest(target);
        lines.push_back(line.str());
      }
    }
  }
  ASSERT_EQ(lines.size(), kCases * 7u);
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
}  // namespace hyperq::cdw

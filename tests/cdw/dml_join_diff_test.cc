/// Seeded differential: the join planner's choice (hash path when eligible)
/// against the nested-loop oracle, over random MERGE, UPDATE…FROM and
/// DELETE…USING statements. Every statement must leave identical target
/// contents, identical counts and an identical Status (code and message).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cdw/join_dml.h"
#include "common/random.h"
#include "sql/parser.h"

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
  for (const Row& row : c.target_rows) ASSERT_TRUE((*t)->AppendRow(row).ok());

  Schema source;
  source.AddField(Field("K1", c.cross_family ? TypeDesc::Varchar(6) : KeyType(c.family, false)));
  source.AddField(Field("K2", KeyType(c.family, false)));
  source.AddField(Field("V", TypeDesc::Int64()));
  source.AddField(Field("W", TypeDesc::Varchar(8)));
  source.AddField(Field("HQ_ROWNUM", TypeDesc::Int64()));
  auto s = catalog->CreateTable("SRC", source);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  for (const Row& row : c.source_rows) ASSERT_TRUE((*s)->AppendRow(row).ok());
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

}  // namespace
}  // namespace hyperq::cdw

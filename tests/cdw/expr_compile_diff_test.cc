/// Golden differential: the statement compiler (CompiledExpr) against the
/// results of the row-at-a-time interpreter it replaced, frozen in
/// testdata/expr_golden.txt before the interpreter was deleted (see the
/// file's header and DESIGN.md "Embedded CDW: compiled expressions"). Each
/// line holds an expression as sql::PrintExpr text, the rows of the two
/// fixture tables it is evaluated at, and the interpreter's value (kind and
/// ToString) or Status (code and message). The trees cover every ExprKind,
/// every scalar function name, an unknown name, the aggregate and legacy
/// names, and column references that are qualified, unqualified, missing
/// and ambiguous over the two bound tables.

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "cdw/compiled_expr.h"
#include "cdw/table.h"
#include "sql/parser.h"
#include "table_rows.h"

namespace hyperq::cdw {
namespace {

using types::Field;
using types::Schema;
using types::TypeDesc;
using types::Value;

constexpr size_t kRows = 4;

/// The function names the golden's trees call. `trim` is listed but never
/// appears: the parser reads TRIM(...) back as "TRIM", so no tree calling
/// it round-trips through text (`to_date`, `sum` and `min` pin the
/// case-insensitive lookup instead).
const char* const kFunctionNames[] = {
    "TRIM",     "LTRIM",   "RTRIM",      "UPPER",      "LOWER",        "LENGTH",
    "SUBSTR",   "POSITION", "COALESCE",  "NULLIF",     "ABS",          "ROUND",
    "FLOOR",    "CEIL",    "CEILING",    "POWER",      "MOD",          "TO_DATE",
    "TO_TIMESTAMP", "EXTRACT", "ADD_MONTHS", "LAST_DAY", "TO_CHAR",   "to_date",
    "trim",     "FROBNICATE", "COUNT",   "sum",        "ZEROIFNULL",   "NULLIFZERO",
    "INDEX",    "CHARACTERS", "min",     "MAX",        "AVG",
};

/// Two tables bound as A and B. K is in both (ambiguous unqualified).
class Fixture {
 public:
  Fixture() {
    Schema a;
    a.AddField(Field("I", TypeDesc::Int32()));
    a.AddField(Field("L", TypeDesc::Int64()));
    a.AddField(Field("DEC", TypeDesc::Decimal(12, 2)));
    a.AddField(Field("F", TypeDesc::Float64()));
    a.AddField(Field("DT", TypeDesc::Date()));
    a.AddField(Field("S", TypeDesc::Varchar(40)));
    a.AddField(Field("K", TypeDesc::Int64()));
    Schema b;
    b.AddField(Field("L2", TypeDesc::Int64()));
    b.AddField(Field("S2", TypeDesc::Varchar(40)));
    b.AddField(Field("DT2", TypeDesc::Date()));
    b.AddField(Field("K", TypeDesc::Varchar(40)));
    a_ = std::make_unique<Table>("TA", a);
    b_ = std::make_unique<Table>("TB", b);
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    const types::Row a_rows[kRows] = {
        {Value::Int(1621), Value::Int(kMax), Value::Dec(types::Decimal(-56297, 2)),
         Value::Float(-398.5), Value::Null(), Value::String("YYYY-MM-DD"), Value::Int(kMax)},
        {Value::Int(87090), Value::Int(12), Value::Dec(types::Decimal(96169, 2)),
         Value::Float(335.75), Value::Null(), Value::String("20/06/15"), Value::Int(-1)},
        {Value::Int(-21031), Value::Int(955), Value::Dec(types::Decimal(67538, 2)),
         Value::Float(100.375), Value::Null(), Value::String("9223372036854775807"),
         Value::Int(-853)},
        {Value::Null(), Value::Int(-661), Value::Dec(types::Decimal(-26653, 2)),
         Value::Float(209.125), Value::Date(-7857), Value::String("20/06/15"), Value::Null()},
    };
    const types::Row b_rows[kRows] = {
        {Value::Int(11), Value::String("_b%"), Value::Null(), Value::String("20200615")},
        {Value::Int(-1), Value::String("h%"), Value::Null(), Value::String("")},
        {Value::Int(193), Value::String("   "), Value::Null(), Value::String("2021-02-30")},
        {Value::Int(1), Value::Null(), Value::Date(-15294), Value::String("2021-02-30")},
    };
    EXPECT_TRUE(AppendRows(a_.get(), {std::begin(a_rows), std::end(a_rows)}).ok());
    EXPECT_TRUE(AppendRows(b_.get(), {std::begin(b_rows), std::end(b_rows)}).ok());
  }

  std::vector<ScanBinding> Bindings() const { return {{"A", a_.get()}, {"B", b_.get()}}; }

 private:
  std::unique_ptr<Table> a_;
  std::unique_ptr<Table> b_;
};

struct GoldenCase {
  std::string kind;  ///< scalar, predicate or grouped
  std::string rows;  ///< "ra,rb"; for grouped also "none" or "all"
  std::string expr;
  std::string result;
};

std::vector<GoldenCase> ReadGolden() {
  std::ifstream in(std::string(HQ_CDW_TESTDATA_DIR) + "/expr_golden.txt");
  EXPECT_TRUE(in.good()) << "cannot open the expression golden";
  std::vector<GoldenCase> cases;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    GoldenCase c;
    size_t at = 0;
    for (std::string* field : {&c.kind, &c.rows, &c.expr}) {
      const size_t tab = line.find('\t', at);
      EXPECT_NE(tab, std::string::npos) << line;
      if (tab == std::string::npos) return cases;
      *field = line.substr(at, tab - at);
      at = tab + 1;
    }
    c.result = line.substr(at);
    cases.push_back(std::move(c));
  }
  return cases;
}

/// "ra,rb" as one row index per binding.
std::vector<size_t> RowPair(const std::string& text) {
  const size_t comma = text.find(',');
  return {std::stoul(text.substr(0, comma)), std::stoul(text.substr(comma + 1))};
}

const char* KindName(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_boolean()) return "BOOLEAN";
  if (v.is_int()) return "INT";
  if (v.is_float()) return "FLOAT";
  if (v.is_string()) return "STRING";
  if (v.is_decimal()) return "DECIMAL";
  if (v.is_date()) return "DATE";
  return "TIMESTAMP";
}

/// A result in the golden's notation.
std::string Outcome(const common::Result<const Value*>& r) {
  if (!r.ok()) return "error " + r.status().ToString();
  return std::string("value ") + KindName(**r) + " " + (*r)->ToString();
}

std::string Outcome(const common::Result<bool>& r) {
  if (!r.ok()) return "error " + r.status().ToString();
  return *r ? "value BOOLEAN TRUE" : "value BOOLEAN FALSE";
}

// Scalar (Compile + Eval) and predicate (CompilePredicate + Test) lines.
// Each compiled expression is first evaluated at the previous line's rows
// and that result discarded, so a result slot left over from other rows
// would show.
TEST(ExprCompileDiffTest, CompiledMatchesInterpreter) {
  const Fixture fixture;
  const std::vector<ScanBinding> bindings = fixture.Bindings();
  std::vector<size_t> previous = {kRows - 1, 0};
  size_t cases = 0;
  size_t scalar = 0;
  size_t scalar_errors = 0;
  std::string all_text;
  for (const GoldenCase& c : ReadGolden()) {
    if (c.kind == "grouped") continue;
    auto expr = sql::ParseExpression(c.expr);
    ASSERT_TRUE(expr.ok()) << c.expr;
    const std::vector<size_t> rows = RowPair(c.rows);
    std::string got;
    if (c.kind == "scalar") {
      const CompiledExpr compiled = CompiledExpr::Compile(**expr, bindings);
      (void)compiled.Eval(previous.data());
      got = Outcome(compiled.Eval(rows.data()));
      ++scalar;
      scalar_errors += c.result.starts_with("error ") ? 1 : 0;
    } else {
      ASSERT_EQ(c.kind, "predicate");
      const CompiledExpr compiled = CompiledExpr::CompilePredicate(expr->get(), bindings);
      (void)compiled.Test(previous.data());
      got = Outcome(compiled.Test(rows.data()));
    }
    ASSERT_EQ(got, c.result) << c.kind << " " << c.expr << " at rows (" << c.rows << ")";
    previous = rows;
    all_text += c.expr;
    ++cases;
  }
  EXPECT_GE(cases, 5000u);
  // Both outcomes must be well represented, or the trees are too shallow.
  EXPECT_GT(scalar_errors, scalar / 10);
  EXPECT_LT(scalar_errors, scalar * 9 / 10);
  for (const std::string name : kFunctionNames) {
    if (name == "trim") continue;
    EXPECT_NE(all_text.find(name + "("), std::string::npos) << name;
  }
}

// Aggregate context: CompileGrouped + EvalGroup over an empty group, the
// one-row group (2, 1) and the group of all 16 row pairs. The golden lists
// the three groups of an expression in that order, so one compiled
// expression is evaluated over each in turn.
TEST(ExprCompileDiffTest, GroupedMatchesLiftedInterpreter) {
  const Fixture fixture;
  const std::vector<ScanBinding> bindings = fixture.Bindings();
  GroupRows all;
  for (size_t ra = 0; ra < kRows; ++ra) {
    for (size_t rb = 0; rb < kRows; ++rb) all.push_back({ra, rb});
  }
  std::string compiled_text;
  CompiledExpr compiled;
  size_t cases = 0;
  for (const GoldenCase& c : ReadGolden()) {
    if (c.kind != "grouped") continue;
    if (c.expr != compiled_text) {
      auto expr = sql::ParseExpression(c.expr);
      ASSERT_TRUE(expr.ok()) << c.expr;
      compiled = CompiledExpr::CompileGrouped(**expr, bindings);
      compiled_text = c.expr;
    }
    const GroupRows group =
        c.rows == "none" ? GroupRows{} : c.rows == "all" ? all : GroupRows{RowPair(c.rows)};
    ASSERT_EQ(Outcome(compiled.EvalGroup(group)), c.result)
        << c.expr << " over a group of " << group.size();
    ++cases;
  }
  EXPECT_GE(cases, 1500u);
}

// A predicate `column [NOT] BETWEEN int AND int` is decided on integer cells
// by the IntRange kernel; it must agree with the compiled BETWEEN node walk
// (a scalar compile, which has no kernel) under WHERE semantics, on every
// cell kind and on an unresolvable column.
TEST(ExprCompileDiffTest, IntRangePredicateMatchesInterpreter) {
  const Fixture fixture;
  const std::vector<ScanBinding> bindings = fixture.Bindings();
  for (const char* text :
       {"A.L BETWEEN -1000 AND 0", "L NOT BETWEEN 0 AND 9223372036854775807", "A.I BETWEEN 5 AND 1",
        "K BETWEEN 0 AND 1", "A.K BETWEEN -9223372036854775807 - 1 AND 0", "A.S BETWEEN 1 AND 50",
        "B.S2 NOT BETWEEN 0 AND 100", "A.DEC BETWEEN 0 AND 500", "A.F BETWEEN -3 AND 3",
        "A.DT BETWEEN 0 AND 100", "A.NOPE BETWEEN 1 AND 2", "A.I BETWEEN 1000 AND 90000",
        "A.L NOT BETWEEN 12 AND 955"}) {
    auto expr = sql::ParseExpression(text);
    ASSERT_TRUE(expr.ok()) << text;
    const CompiledExpr walk = CompiledExpr::Compile(**expr, bindings);
    const CompiledExpr kernel = CompiledExpr::CompilePredicate(expr->get(), bindings);
    for (size_t ra = 0; ra < kRows; ++ra) {
      const size_t rows[2] = {ra, kRows - 1 - ra};
      common::Result<const Value*> value = walk.Eval(rows);
      common::Result<bool> want = !value.ok() ? common::Result<bool>(value.status())
                                              : common::Result<bool>((*value)->is_boolean() &&
                                                                     (*value)->boolean());
      common::Result<bool> got = kernel.Test(rows);
      ASSERT_EQ(want.ok(), got.ok()) << text;
      if (want.ok()) {
        EXPECT_EQ(*want, *got) << text << " at row " << ra;
      } else {
        EXPECT_EQ(want.status().ToString(), got.status().ToString()) << text;
      }
    }
  }
}

// The absent predicate is true.
TEST(ExprCompileDiffTest, AbsentPredicateIsTrue) {
  const CompiledExpr none = CompiledExpr::CompilePredicate(nullptr, {});
  auto t = none.Test(nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(*t);
}

}  // namespace
}  // namespace hyperq::cdw

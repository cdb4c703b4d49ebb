/// Seeded differential: the statement compiler (CompiledExpr) against the
/// EvaluateExpr interpreter it replaces. Random expression trees of depth at
/// most 4 cover every ExprKind, every scalar function name, an unknown name,
/// the aggregate and legacy names, and column references that are
/// qualified, unqualified, missing and ambiguous over two bound tables. Each
/// (expression, row pair) must give the same value (same kind, Compare == 0)
/// or the same Status (code and message), and the predicate forms must agree
/// the same way.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cdw/compiled_expr.h"
#include "cdw/expr_eval.h"
#include "cdw/table.h"
#include "common/random.h"
#include "common/string_util.h"
#include "sql/parser.h"

namespace hyperq::cdw {
namespace {

using sql::BinaryOp;
using sql::ExprPtr;
using types::Field;
using types::Schema;
using types::TypeDesc;
using types::Value;

constexpr int kExpressions = 2500;
constexpr int kMaxDepth = 4;
constexpr size_t kRows = 4;

const char* const kFunctionNames[] = {
    "TRIM",     "LTRIM",   "RTRIM",      "UPPER",      "LOWER",        "LENGTH",
    "SUBSTR",   "POSITION", "COALESCE",  "NULLIF",     "ABS",          "ROUND",
    "FLOOR",    "CEIL",    "CEILING",    "POWER",      "MOD",          "TO_DATE",
    "TO_TIMESTAMP", "EXTRACT", "ADD_MONTHS", "LAST_DAY", "TO_CHAR",   "to_date",
    "trim",     "FROBNICATE", "COUNT",   "sum",        "ZEROIFNULL",   "NULLIFZERO",
    "INDEX",    "CHARACTERS", "min",     "MAX",        "AVG",
};

const char* const kTexts[] = {
    "42",         " 7 ",        "-3.5",       "0",          "1e3",        "2020-06-15",
    "1999-12-31", "2021-02-30", "20/06/15",   "20200615",   "abc",        "",
    "   ",        "YYYY-MM-DD", "YY/MM/DD",   "YYYYMMDD",   "MONTH",      "year",
    "h%",         "_b%",        "2020-06-15 10:11:12",      "9223372036854775807",
};

/// Two tables bound as A and B. K is in both (ambiguous unqualified).
class Fixture {
 public:
  explicit Fixture(common::Random* rng) : rng_(*rng) {
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
    for (size_t r = 0; r < kRows; ++r) {
      EXPECT_TRUE(a_->AppendRow({Cell(Kind::kInt32), Cell(Kind::kInt64), Cell(Kind::kDecimal),
                                 Cell(Kind::kFloat), Cell(Kind::kDate), Cell(Kind::kText),
                                 Cell(Kind::kInt64)})
                      .ok());
      EXPECT_TRUE(
          b_->AppendRow({Cell(Kind::kInt64), Cell(Kind::kText), Cell(Kind::kDate),
                         Cell(Kind::kText)})
              .ok());
    }
  }

  std::vector<ScanBinding> Bindings() const { return {{"A", a_.get()}, {"B", b_.get()}}; }

  EvalContext Context(size_t ra, size_t rb) const {
    EvalContext ctx;
    ctx.AddBinding("A", a_.get(), ra);
    ctx.AddBinding("B", b_.get(), rb);
    return ctx;
  }

  ExprPtr Expr(int depth) {
    if (depth >= kMaxDepth || rng_.NextBool(0.25)) return Leaf();
    auto sub = [&] { return Expr(depth + 1); };
    switch (rng_.NextBounded(10)) {
      case 0: {
        auto op = rng_.NextBool() ? sql::UnaryOp::kNot : sql::UnaryOp::kNegate;
        return std::make_unique<sql::UnaryExpr>(op, sub());
      }
      case 1:
      case 2: {
        const auto ops = static_cast<uint64_t>(BinaryOp::kLike) + 1;  // every operator
        auto op = static_cast<BinaryOp>(rng_.NextBounded(ops));
        return std::make_unique<sql::BinaryExpr>(op, sub(), sub());
      }
      case 3:
      case 4: {
        auto fn = std::make_unique<sql::FunctionExpr>();
        fn->name = kFunctionNames[rng_.NextBounded(std::size(kFunctionNames))];
        // Mostly a plausible arity (1-3), sometimes none; TO_DATE gets a
        // literal format half the time, the shape the compiler parses once.
        const size_t argc = rng_.NextBool(0.1) ? 0 : 1 + rng_.NextBounded(3);
        for (size_t i = 0; i < argc; ++i) fn->args.push_back(sub());
        if (fn->args.size() == 2 && rng_.NextBool(0.5)) {
          fn->args[1] = std::make_unique<sql::LiteralExpr>(Value::String(Text()));
        }
        if (rng_.NextBool(0.05)) fn->args.push_back(std::make_unique<sql::StarExpr>());
        return fn;
      }
      case 5: {
        const TypeDesc targets[] = {TypeDesc::Int32(),     TypeDesc::Int64(),
                                    TypeDesc::Float64(),   TypeDesc::Decimal(10, 2),
                                    TypeDesc::Date(),      TypeDesc::Varchar(4),
                                    TypeDesc::Char(6),     TypeDesc::Boolean(),
                                    TypeDesc::Timestamp()};
        std::string format = rng_.NextBool(0.05) ? "YYYY-MM-DD" : "";
        return std::make_unique<sql::CastExpr>(
            sub(), targets[rng_.NextBounded(std::size(targets))], format);
      }
      case 6: {
        auto c = std::make_unique<sql::CaseExpr>();
        if (rng_.NextBool()) c->operand = sub();
        const size_t whens = 1 + rng_.NextBounded(3);
        for (size_t i = 0; i < whens; ++i) c->whens.emplace_back(sub(), sub());
        if (rng_.NextBool()) c->else_expr = sub();
        return c;
      }
      case 7:
        return std::make_unique<sql::IsNullExpr>(sub(), rng_.NextBool());
      case 8: {
        auto in = std::make_unique<sql::InListExpr>();
        in->operand = sub();
        const size_t items = 1 + rng_.NextBounded(3);
        for (size_t i = 0; i < items; ++i) in->list.push_back(sub());
        in->negated = rng_.NextBool();
        return in;
      }
      default: {
        auto bt = std::make_unique<sql::BetweenExpr>();
        bt->operand = sub();
        bt->low = sub();
        bt->high = sub();
        bt->negated = rng_.NextBool();
        return bt;
      }
    }
  }

 private:
  enum class Kind { kInt32, kInt64, kDecimal, kFloat, kDate, kText };

  std::string Text() { return kTexts[rng_.NextBounded(std::size(kTexts))]; }

  Value Int64() {
    const int64_t extremes[] = {0, 1, -1, 2, 12, 9223372036854775807LL,
                                -9223372036854775807LL - 1};
    return rng_.NextBool(0.3) ? Value::Int(extremes[rng_.NextBounded(std::size(extremes))])
                              : Value::Int(rng_.NextInRange(-1000, 1000));
  }

  Value Cell(Kind kind) {
    if (rng_.NextBool(0.15)) return Value::Null();
    switch (kind) {
      case Kind::kInt32:
        return Value::Int(rng_.NextInRange(-100000, 100000));
      case Kind::kInt64:
        return Int64();
      case Kind::kDecimal:
        return Value::Dec(types::Decimal(rng_.NextInRange(-100000, 100000), 2));
      case Kind::kFloat:
        return Value::Float(static_cast<double>(rng_.NextInRange(-5000, 5000)) / 8.0);
      case Kind::kDate:
        return Value::Date(static_cast<types::DateDays>(rng_.NextInRange(-20000, 40000)));
      case Kind::kText:
        return Value::String(Text());
    }
    return Value::Null();
  }

  ExprPtr Leaf() {
    switch (rng_.NextBounded(12)) {
      case 0:
        return std::make_unique<sql::LiteralExpr>(Value::String(Text()));
      case 1:
        return std::make_unique<sql::LiteralExpr>(Int64());
      case 2: {
        const Value literals[] = {Value::Null(), Value::Boolean(true), Value::Boolean(false),
                                  Value::Float(2.5), Value::Dec(types::Decimal(1234, 2)),
                                  Value::Date(18428)};
        return std::make_unique<sql::LiteralExpr>(literals[rng_.NextBounded(std::size(literals))]);
      }
      case 3:
        if (rng_.NextBool(0.3)) return std::make_unique<sql::PlaceholderExpr>("CUST_ID");
        return std::make_unique<sql::StarExpr>();
      default: {
        // Qualified, unqualified, missing and ambiguous references.
        const std::pair<const char*, const char*> refs[] = {
            {"A", "I"},  {"a", "l"},   {"A", "DEC"}, {"A", "F"},  {"A", "DT"}, {"A", "S"},
            {"A", "K"},  {"B", "L2"},  {"B", "S2"},  {"b", "dt2"}, {"B", "K"}, {"", "I"},
            {"", "S"},   {"", "S2"},   {"", "dt"},   {"", "K"},   {"", "NOPE"}, {"C", "I"},
            {"B", "I"},  {"A", "NOPE"},
        };
        const auto& [table, column] = refs[rng_.NextBounded(std::size(refs))];
        return std::make_unique<sql::ColumnRefExpr>(table, column);
      }
    }
  }

  common::Random& rng_;
  std::unique_ptr<Table> a_;
  std::unique_ptr<Table> b_;
};

/// "" when both outcomes agree, else a description of the difference.
std::string Diff(const common::Result<Value>& oracle,
                 const common::Result<const Value*>& compiled) {
  if (oracle.ok() != compiled.ok()) {
    return "oracle " + (oracle.ok() ? oracle->ToString() : oracle.status().ToString()) +
           " vs compiled " +
           (compiled.ok() ? (*compiled)->ToString() : compiled.status().ToString());
  }
  if (!oracle.ok()) {
    if (oracle.status().code() == compiled.status().code() &&
        oracle.status().message() == compiled.status().message()) {
      return "";
    }
    return "oracle " + oracle.status().ToString() + " vs compiled " + compiled.status().ToString();
  }
  const Value& a = *oracle;
  const Value& b = **compiled;
  const bool same_kind = a.is_null() == b.is_null() && a.is_boolean() == b.is_boolean() &&
                         a.is_int() == b.is_int() && a.is_float() == b.is_float() &&
                         a.is_string() == b.is_string() && a.is_decimal() == b.is_decimal() &&
                         a.is_date() == b.is_date() && a.is_timestamp() == b.is_timestamp();
  if (same_kind && a.Compare(b) == 0) return "";
  return "oracle " + a.ToString() + " vs compiled " + b.ToString();
}

TEST(ExprCompileDiffTest, CompiledMatchesInterpreter) {
  common::Random rng(20261017);
  Fixture fixture(&rng);
  const std::vector<ScanBinding> bindings = fixture.Bindings();
  size_t pairs = 0;
  size_t errors = 0;
  for (int e = 0; e < kExpressions; ++e) {
    ExprPtr expr = fixture.Expr(0);
    const CompiledExpr compiled = CompiledExpr::Compile(*expr, bindings);
    const CompiledExpr predicate = CompiledExpr::CompilePredicate(expr.get(), bindings);
    // Row pairs in a fixed scramble, so the compiled nodes are re-evaluated
    // over rows in varying order.
    for (size_t i = 0; i < kRows * 2; ++i) {
      const size_t rows[2] = {(i * 3 + static_cast<size_t>(e)) % kRows, (i * 5 + 1) % kRows};
      const EvalContext ctx = fixture.Context(rows[0], rows[1]);
      common::Result<Value> oracle = EvaluateExpr(*expr, ctx);
      std::string diff = Diff(oracle, compiled.Eval(rows));
      ASSERT_EQ(diff, "") << "expression #" << e << " at rows (" << rows[0] << ", " << rows[1]
                          << ")";
      common::Result<bool> want = PredicateTrue(expr.get(), ctx);
      common::Result<bool> got = predicate.Test(rows);
      ASSERT_EQ(want.ok(), got.ok()) << "predicate #" << e;
      if (want.ok()) {
        ASSERT_EQ(*want, *got) << "predicate #" << e;
      } else {
        ASSERT_EQ(want.status().ToString(), got.status().ToString()) << "predicate #" << e;
      }
      ++pairs;
      errors += oracle.ok() ? 0 : 1;
    }
  }
  EXPECT_GE(pairs, 20000u);
  // Both outcomes must be well represented, or the trees are too shallow.
  EXPECT_GT(errors, pairs / 10);
  EXPECT_LT(errors, pairs * 9 / 10);
}

/// The executor's aggregate-context evaluation before the compiler, kept
/// here as the grouped oracle: an aggregate folds the group's rows, a
/// composite around one is re-evaluated over its operands' values as
/// literals, and anything else reads the group's first row.
common::Result<Value> LiftedEval(const sql::Expr& expr, const Fixture& fixture,
                                 const GroupRows& group) {
  using common::EqualsIgnoreCase;
  using common::Status;
  using sql::ExprKind;
  auto literal = [](Value v) { return std::make_unique<sql::LiteralExpr>(std::move(v)); };
  const EvalContext empty;
  if (expr.kind == ExprKind::kFunction) {
    const auto& fn = static_cast<const sql::FunctionExpr&>(expr);
    if (IsAggregateFunction(fn.name)) {
      const bool is_count = EqualsIgnoreCase(fn.name, "COUNT");
      const bool count_star =
          is_count && fn.args.size() == 1 && fn.args[0]->kind == ExprKind::kStar;
      if (fn.args.size() != 1) return Status::Invalid(fn.name + " takes one argument");
      std::vector<Value> inputs;
      std::set<types::Row, RowLess> distinct_seen;
      for (const auto& combined : group) {
        if (count_star) {
          inputs.push_back(Value::Int(1));
          continue;
        }
        HQ_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*fn.args[0],
                                                  fixture.Context(combined[0], combined[1])));
        if (v.is_null()) continue;
        if (fn.distinct && !distinct_seen.insert(types::Row{v}).second) continue;
        inputs.push_back(std::move(v));
      }
      if (is_count) return Value::Int(static_cast<int64_t>(inputs.size()));
      if (inputs.empty()) return Value::Null();
      if (EqualsIgnoreCase(fn.name, "MIN") || EqualsIgnoreCase(fn.name, "MAX")) {
        const bool want_max = EqualsIgnoreCase(fn.name, "MAX");
        Value best = inputs[0];
        for (size_t i = 1; i < inputs.size(); ++i) {
          int c = inputs[i].Compare(best);
          if ((want_max && c > 0) || (!want_max && c < 0)) best = inputs[i];
        }
        return best;
      }
      double total = 0;
      bool all_int = true;
      bool overflow = false;
      int64_t int_total = 0;
      for (const auto& v : inputs) {
        if (v.is_int()) {
          overflow |= __builtin_add_overflow(int_total, v.int_value(), &int_total);
          total += static_cast<double>(v.int_value());
        } else if (v.is_float()) {
          all_int = false;
          total += v.float_value();
        } else if (v.is_decimal()) {
          all_int = false;
          total += v.decimal_value().ToDouble();
        } else {
          return Status::TypeError(fn.name + " over non-numeric values");
        }
      }
      if (EqualsIgnoreCase(fn.name, "SUM")) {
        if (all_int && overflow) return Status::ConversionError("integer overflow");
        return all_int ? Value::Int(int_total) : Value::Float(total);
      }
      return Value::Float(total / static_cast<double>(inputs.size()));
    }
    auto copy = std::make_unique<sql::FunctionExpr>();
    copy->name = fn.name;
    for (const auto& a : fn.args) {
      HQ_ASSIGN_OR_RETURN(Value v, LiftedEval(*a, fixture, group));
      copy->args.push_back(literal(std::move(v)));
    }
    return EvaluateExpr(*copy, empty);
  }
  if (!ContainsAggregate(expr)) {
    if (group.empty()) return Value::Null();
    return EvaluateExpr(expr, fixture.Context(group[0][0], group[0][1]));
  }
  switch (expr.kind) {  // hqcheck:allow(enum-switch)
    case ExprKind::kUnary: {
      const auto& u = static_cast<const sql::UnaryExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(Value v, LiftedEval(*u.operand, fixture, group));
      return EvaluateExpr(sql::UnaryExpr(u.op, literal(std::move(v))), empty);
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(Value l, LiftedEval(*b.left, fixture, group));
      HQ_ASSIGN_OR_RETURN(Value r, LiftedEval(*b.right, fixture, group));
      return EvaluateExpr(sql::BinaryExpr(b.op, literal(std::move(l)), literal(std::move(r))),
                          empty);
    }
    case ExprKind::kCast: {
      const auto& c = static_cast<const sql::CastExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(Value v, LiftedEval(*c.operand, fixture, group));
      return EvaluateExpr(sql::CastExpr(literal(std::move(v)), c.target, c.format), empty);
    }
    default:
      return Status::NotImplemented("aggregate inside this expression form");
  }
}

// Aggregate context: CompileGrouped against the lifted oracle, over an empty
// group, a one-row group and a group of every row pair.
TEST(ExprCompileDiffTest, GroupedMatchesLiftedInterpreter) {
  common::Random rng(7);
  Fixture fixture(&rng);
  const std::vector<ScanBinding> bindings = fixture.Bindings();
  GroupRows all;
  for (size_t ra = 0; ra < kRows; ++ra) {
    for (size_t rb = 0; rb < kRows; ++rb) all.push_back({ra, rb});
  }
  const GroupRows groups[] = {{}, {{2, 1}}, all};
  size_t pairs = 0;
  for (int e = 0; e < kExpressions / 2; ++e) {
    ExprPtr expr = fixture.Expr(0);
    const CompiledExpr compiled = CompiledExpr::CompileGrouped(*expr, bindings);
    for (const GroupRows& group : groups) {
      std::string diff = Diff(LiftedEval(*expr, fixture, group), compiled.EvalGroup(group));
      ASSERT_EQ(diff, "") << "expression #" << e << " over a group of " << group.size();
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 3000u);
}

// A predicate `column [NOT] BETWEEN int AND int` is decided on integer cells
// without the node tree; every other cell still goes through it.
TEST(ExprCompileDiffTest, IntRangePredicateMatchesInterpreter) {
  common::Random rng(4242);
  Fixture fixture(&rng);
  const std::vector<ScanBinding> bindings = fixture.Bindings();
  for (const char* text :
       {"A.L BETWEEN -1000 AND 0", "L NOT BETWEEN 0 AND 9223372036854775807", "A.I BETWEEN 5 AND 1",
        "K BETWEEN 0 AND 1", "A.K BETWEEN -9223372036854775807 - 1 AND 0", "A.S BETWEEN 1 AND 50",
        "B.S2 NOT BETWEEN 0 AND 100", "A.DEC BETWEEN 0 AND 500", "A.F BETWEEN -3 AND 3",
        "A.DT BETWEEN 0 AND 100", "A.NOPE BETWEEN 1 AND 2"}) {
    auto expr = sql::ParseExpression(text);
    ASSERT_TRUE(expr.ok()) << text;
    const CompiledExpr predicate = CompiledExpr::CompilePredicate(expr->get(), bindings);
    for (size_t ra = 0; ra < kRows; ++ra) {
      const size_t rows[2] = {ra, kRows - 1 - ra};
      common::Result<bool> want = PredicateTrue(expr->get(), fixture.Context(rows[0], rows[1]));
      common::Result<bool> got = predicate.Test(rows);
      ASSERT_EQ(want.ok(), got.ok()) << text;
      if (want.ok()) {
        EXPECT_EQ(*want, *got) << text << " at row " << ra;
      } else {
        EXPECT_EQ(want.status().ToString(), got.status().ToString()) << text;
      }
    }
  }
}

// The absent predicate is true, as PredicateTrue(nullptr, ...) is.
TEST(ExprCompileDiffTest, AbsentPredicateIsTrue) {
  const CompiledExpr none = CompiledExpr::CompilePredicate(nullptr, {});
  auto t = none.Test(nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(*t);
}

}  // namespace
}  // namespace hyperq::cdw

#include <gtest/gtest.h>

#include <limits>

#include "cdw/compiled_expr.h"
#include "cdw/expr_eval.h"
#include "cdw/table.h"
#include "sql/parser.h"
#include "table_rows.h"
#include "types/date.h"

namespace hyperq::cdw {
namespace {

using types::Field;
using types::Schema;
using types::TypeDesc;
using types::Value;

class ExprEvalTest : public ::testing::Test {
 protected:
  static Schema MakeSchema() {
    Schema schema;
    schema.AddField(Field("A", TypeDesc::Int64()));
    schema.AddField(Field("B", TypeDesc::Varchar(20)));
    schema.AddField(Field("D", TypeDesc::Date()));
    schema.AddField(Field("N", TypeDesc::Int64()));
    return schema;
  }

  ExprEvalTest() {
    row_ = {Value::Int(10), Value::String("hello"),
            Value::Date(types::DaysFromYmd(2020, 6, 15).ValueOrDie()), Value::Null()};
    EXPECT_TRUE(AppendRows(&table_, {row_}).ok());
    ctx_.AddBinding("T", &table_, 0);
  }

  /// The tables an expression sees, each at one row.
  struct Scope {
    void AddBinding(std::string alias, const Table* table, size_t row) {
      bindings.push_back({std::move(alias), table});
      rows.push_back(row);
    }
    std::vector<ScanBinding> bindings;
    std::vector<size_t> rows;
  };

  common::Result<Value> Eval(const std::string& text) {
    auto expr = sql::ParseExpression(text);
    if (!expr.ok()) return expr.status();
    const CompiledExpr compiled = CompiledExpr::Compile(**expr, ctx_.bindings);
    HQ_ASSIGN_OR_RETURN(const Value* v, compiled.Eval(ctx_.rows.data()));
    return *v;
  }

  Value MustEval(const std::string& text) {
    auto v = Eval(text);
    EXPECT_TRUE(v.ok()) << text << ": " << v.status().ToString();
    return v.ok() ? *v : Value::Null();
  }

  Table table_{"T", MakeSchema()};
  types::Row row_;
  Scope ctx_;
};

TEST_F(ExprEvalTest, ColumnResolution) {
  EXPECT_EQ(MustEval("A").int_value(), 10);
  EXPECT_EQ(MustEval("T.A").int_value(), 10);
  EXPECT_EQ(MustEval("t.a").int_value(), 10);  // case-insensitive
  EXPECT_TRUE(Eval("missing").status().IsNotFound());
  EXPECT_TRUE(Eval("X.A").status().IsNotFound());
}

TEST_F(ExprEvalTest, AmbiguousColumnRejected) {
  Table other("S", table_.schema());
  ASSERT_TRUE(AppendRows(&other, {row_}).ok());
  ctx_.AddBinding("S", &other, 0);
  EXPECT_TRUE(Eval("A").status().IsInvalid());
  EXPECT_TRUE(Eval("S.A").ok());
}

TEST_F(ExprEvalTest, IntegerArithmetic) {
  EXPECT_EQ(MustEval("A + 5").int_value(), 15);
  EXPECT_EQ(MustEval("A - 15").int_value(), -5);
  EXPECT_EQ(MustEval("A * 3").int_value(), 30);
  EXPECT_EQ(MustEval("A / 3").int_value(), 3);
  EXPECT_EQ(MustEval("MOD(A, 3)").int_value(), 1);
  EXPECT_EQ(MustEval("-A").int_value(), -10);
}

TEST_F(ExprEvalTest, DivisionByZeroIsConversionError) {
  EXPECT_TRUE(Eval("A / 0").status().IsConversionError());
  EXPECT_TRUE(Eval("MOD(A, 0)").status().IsConversionError());
}

TEST_F(ExprEvalTest, IntegerOverflowCaught) {
  EXPECT_TRUE(Eval("9223372036854775807 + 1").status().IsConversionError());
}

// ADD_MONTHS adds to a month count and narrows it to a year: both overflow
// like `+` instead of wrapping into a nonsense "invalid date".
TEST_F(ExprEvalTest, AddMonthsOverflowCaught) {
  auto s = Eval("ADD_MONTHS(D, 9223372036854775807)").status();
  EXPECT_TRUE(s.IsConversionError());
  EXPECT_EQ(s.message(), "integer overflow");
  s = Eval("ADD_MONTHS(D, -9223372036854775807 - 1)").status();
  EXPECT_TRUE(s.IsConversionError());
  EXPECT_EQ(s.message(), "integer overflow");
  s = Eval("ADD_MONTHS(D, 9223372036854775807 / 2)").status();
  EXPECT_EQ(s.message(), "integer overflow");  // a year past INT32
  EXPECT_TRUE(Eval("ADD_MONTHS(D, 120000)").status().IsConversionError());  // year 12020
}

// A start position before 1 shrinks the window without computing
// start - 1, which INT64_MIN cannot hold.
TEST_F(ExprEvalTest, SubstrInt64MinStartClamps) {
  const std::string kMin = "(-9223372036854775807 - 1)";
  EXPECT_EQ(MustEval("SUBSTR(B, " + kMin + ")").string_value(), "");
  EXPECT_EQ(MustEval("SUBSTR(B, " + kMin + ", 9223372036854775807)").string_value(), "");
  EXPECT_EQ(MustEval("SUBSTR(B, -1, 4)").string_value(), "he");
  EXPECT_EQ(MustEval("SUBSTR(B, -9223372036854775807, 9223372036854775807)").string_value(),
            "");
}

// INT64_MIN has no positive counterpart: its division and remainder by -1
// trap in hardware and its negation wraps, so all three are overflow errors.
TEST_F(ExprEvalTest, Int64MinOverflowCaught) {
  const std::string kMin = "(-9223372036854775807 - 1)";
  EXPECT_TRUE(Eval(kMin + " / -1").status().IsConversionError());
  EXPECT_TRUE(Eval("MOD(" + kMin + ", -1)").status().IsConversionError());
  EXPECT_TRUE(Eval("-" + kMin).status().IsConversionError());
  EXPECT_TRUE(Eval("ABS(" + kMin + ")").status().IsConversionError());
  EXPECT_EQ(MustEval(kMin + " / 1").int_value(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(MustEval("-(-9223372036854775807)").int_value(), 9223372036854775807);
  EXPECT_EQ(MustEval("ABS(-A)").int_value(), 10);
}

TEST_F(ExprEvalTest, DecimalInt64MinUnscaledOverflowCaught) {
  Schema schema;
  schema.AddField(Field("X", TypeDesc::Decimal(18, 2)));
  Table dec("S", schema);
  ASSERT_TRUE(
      AppendRows(&dec, {{Value::Dec(types::Decimal(std::numeric_limits<int64_t>::min(), 2))}})
          .ok());
  ctx_.AddBinding("S", &dec, 0);
  EXPECT_TRUE(Eval("ABS(X)").status().IsConversionError());
  EXPECT_TRUE(Eval("-X").status().IsConversionError());
}

TEST_F(ExprEvalTest, FloatAndMixedArithmetic) {
  EXPECT_DOUBLE_EQ(MustEval("A / 4.0").float_value(), 2.5);
  EXPECT_DOUBLE_EQ(MustEval("0.5 + A").float_value(), 10.5);
}

TEST_F(ExprEvalTest, StringCoercionInArithmetic) {
  EXPECT_DOUBLE_EQ(MustEval("'2' + 3").float_value(), 5.0);
  EXPECT_TRUE(Eval("'abc' + 1").status().IsConversionError());
}

TEST_F(ExprEvalTest, NullPropagation) {
  EXPECT_TRUE(MustEval("N + 1").is_null());
  EXPECT_TRUE(MustEval("N || 'x'").is_null());
  EXPECT_TRUE(MustEval("N = 1").is_null());
  EXPECT_TRUE(MustEval("-N").is_null());
}

TEST_F(ExprEvalTest, Comparisons) {
  EXPECT_TRUE(MustEval("A = 10").boolean());
  EXPECT_TRUE(MustEval("A <> 11").boolean());
  EXPECT_TRUE(MustEval("A < 11").boolean());
  EXPECT_TRUE(MustEval("A >= 10").boolean());
  EXPECT_FALSE(MustEval("A > 10").boolean());
  EXPECT_TRUE(MustEval("B = 'hello'").boolean());
}

TEST_F(ExprEvalTest, CrossTypeComparisonCoercion) {
  EXPECT_TRUE(MustEval("'10' = A").boolean());
  EXPECT_TRUE(MustEval("D = '2020-06-15'").boolean());
  EXPECT_TRUE(MustEval("D > '2020-01-01'").boolean());
}

TEST_F(ExprEvalTest, ThreeValuedLogic) {
  EXPECT_TRUE(MustEval("N = 1 AND A <> 10").boolean() == false);  // null AND false = false
  EXPECT_TRUE(MustEval("N = 1 OR A = 10").boolean());             // null OR true = true
  EXPECT_TRUE(MustEval("N = 1 OR A <> 10").is_null());            // null OR false = null
  EXPECT_TRUE(MustEval("NOT (A = 10)").boolean() == false);
}

TEST_F(ExprEvalTest, NullAndTrueIsNull) {
  EXPECT_TRUE(MustEval("N = 1 AND A = 10").is_null());
}

TEST_F(ExprEvalTest, IsNullChecks) {
  EXPECT_TRUE(MustEval("N IS NULL").boolean());
  EXPECT_FALSE(MustEval("A IS NULL").boolean());
  EXPECT_TRUE(MustEval("A IS NOT NULL").boolean());
}

TEST_F(ExprEvalTest, InList) {
  EXPECT_TRUE(MustEval("A IN (1, 10, 100)").boolean());
  EXPECT_FALSE(MustEval("A IN (1, 2)").boolean());
  EXPECT_TRUE(MustEval("A NOT IN (1, 2)").boolean());
  EXPECT_TRUE(MustEval("A IN (1, N)").is_null());   // unknown due to null
  EXPECT_TRUE(MustEval("A IN (10, N)").boolean());  // found despite null
}

TEST_F(ExprEvalTest, Between) {
  EXPECT_TRUE(MustEval("A BETWEEN 5 AND 15").boolean());
  EXPECT_FALSE(MustEval("A BETWEEN 11 AND 15").boolean());
  EXPECT_TRUE(MustEval("A NOT BETWEEN 11 AND 15").boolean());
  EXPECT_TRUE(MustEval("A BETWEEN N AND 15").is_null());
}

TEST_F(ExprEvalTest, LikePatterns) {
  EXPECT_TRUE(MustEval("B LIKE 'hel%'").boolean());
  EXPECT_TRUE(MustEval("B LIKE '%llo'").boolean());
  EXPECT_TRUE(MustEval("B LIKE 'h_llo'").boolean());
  EXPECT_TRUE(MustEval("B LIKE '%'").boolean());
  EXPECT_FALSE(MustEval("B LIKE 'x%'").boolean());
  EXPECT_TRUE(MustEval("B LIKE 'hello'").boolean());
}

TEST(LikeMatchTest, EdgeCases) {
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "%%%"));
  EXPECT_TRUE(LikeMatch("aXbXc", "a%b%c"));
  EXPECT_FALSE(LikeMatch("ab", "a_b"));
}

TEST_F(ExprEvalTest, StringFunctions) {
  EXPECT_EQ(MustEval("TRIM('  x  ')").string_value(), "x");
  EXPECT_EQ(MustEval("LTRIM('  x  ')").string_value(), "x  ");
  EXPECT_EQ(MustEval("RTRIM('  x  ')").string_value(), "  x");
  EXPECT_EQ(MustEval("UPPER(B)").string_value(), "HELLO");
  EXPECT_EQ(MustEval("LOWER('ABC')").string_value(), "abc");
  EXPECT_EQ(MustEval("LENGTH(B)").int_value(), 5);
  EXPECT_EQ(MustEval("SUBSTR(B, 2, 3)").string_value(), "ell");
  EXPECT_EQ(MustEval("SUBSTR(B, 4)").string_value(), "lo");
  EXPECT_EQ(MustEval("POSITION('ll', B)").int_value(), 3);
  EXPECT_EQ(MustEval("POSITION('zz', B)").int_value(), 0);
  EXPECT_EQ(MustEval("B || '!'").string_value(), "hello!");
}

TEST_F(ExprEvalTest, SubstrEdgeCases) {
  EXPECT_EQ(MustEval("SUBSTR(B, 0, 3)").string_value(), "he");   // window shrinks
  EXPECT_EQ(MustEval("SUBSTR(B, 100)").string_value(), "");
  EXPECT_TRUE(Eval("SUBSTR(B, 1, -1)").status().IsInvalid());
}

TEST_F(ExprEvalTest, ConditionalFunctions) {
  EXPECT_EQ(MustEval("COALESCE(N, A, 99)").int_value(), 10);
  EXPECT_TRUE(MustEval("COALESCE(N, N)").is_null());
  EXPECT_TRUE(MustEval("NULLIF(A, 10)").is_null());
  EXPECT_EQ(MustEval("NULLIF(A, 11)").int_value(), 10);
}

TEST_F(ExprEvalTest, MathFunctions) {
  EXPECT_EQ(MustEval("ABS(-5)").int_value(), 5);
  EXPECT_DOUBLE_EQ(MustEval("ROUND(2.567, 2)").float_value(), 2.57);
  EXPECT_DOUBLE_EQ(MustEval("FLOOR(2.9)").float_value(), 2.0);
  EXPECT_DOUBLE_EQ(MustEval("CEIL(2.1)").float_value(), 3.0);
  EXPECT_DOUBLE_EQ(MustEval("POWER(2, 10)").float_value(), 1024.0);
}

TEST_F(ExprEvalTest, DateFunctions) {
  EXPECT_EQ(MustEval("TO_DATE('2020-06-15', 'YYYY-MM-DD')"),
            Value::Date(types::DaysFromYmd(2020, 6, 15).ValueOrDie()));
  EXPECT_TRUE(Eval("TO_DATE('junk', 'YYYY-MM-DD')").status().IsConversionError());
  EXPECT_EQ(MustEval("TO_CHAR(D, 'YY/MM/DD')").string_value(), "20/06/15");
}

TEST_F(ExprEvalTest, ExtractComponents) {
  EXPECT_EQ(MustEval("EXTRACT(YEAR FROM D)").int_value(), 2020);
  EXPECT_EQ(MustEval("EXTRACT(MONTH FROM D)").int_value(), 6);
  EXPECT_EQ(MustEval("EXTRACT(DAY FROM D)").int_value(), 15);
  EXPECT_EQ(MustEval("EXTRACT(YEAR FROM '2001-02-03')").int_value(), 2001);
  EXPECT_TRUE(MustEval("EXTRACT(DAY FROM N)").is_null());
}

TEST_F(ExprEvalTest, AddMonths) {
  EXPECT_EQ(MustEval("ADD_MONTHS(D, 1)"),
            Value::Date(types::DaysFromYmd(2020, 7, 15).ValueOrDie()));
  EXPECT_EQ(MustEval("ADD_MONTHS(D, -6)"),
            Value::Date(types::DaysFromYmd(2019, 12, 15).ValueOrDie()));
  // End-of-month clamping: Jan 31 + 1 month = Feb 29 (leap 2020).
  EXPECT_EQ(MustEval("ADD_MONTHS(TO_DATE('2020-01-31', 'YYYY-MM-DD'), 1)"),
            Value::Date(types::DaysFromYmd(2020, 2, 29).ValueOrDie()));
  EXPECT_TRUE(MustEval("ADD_MONTHS(N, 1)").is_null());
}

TEST_F(ExprEvalTest, LastDay) {
  EXPECT_EQ(MustEval("LAST_DAY(D)"),
            Value::Date(types::DaysFromYmd(2020, 6, 30).ValueOrDie()));
  EXPECT_EQ(MustEval("LAST_DAY(TO_DATE('2021-02-05', 'YYYY-MM-DD'))"),
            Value::Date(types::DaysFromYmd(2021, 2, 28).ValueOrDie()));
}

TEST_F(ExprEvalTest, CaseExpressions) {
  EXPECT_EQ(MustEval("CASE WHEN A = 10 THEN 'ten' ELSE 'other' END").string_value(), "ten");
  EXPECT_EQ(MustEval("CASE WHEN A = 11 THEN 'x' END"), Value::Null());
  EXPECT_EQ(MustEval("CASE A WHEN 10 THEN 'ten' WHEN 20 THEN 'twenty' END").string_value(),
            "ten");
  EXPECT_EQ(MustEval("CASE N WHEN 1 THEN 'one' ELSE 'null operand' END").string_value(),
            "null operand");
}

TEST_F(ExprEvalTest, CastInCdwDialect) {
  EXPECT_EQ(MustEval("CAST(A AS VARCHAR(5))").string_value(), "10");
  EXPECT_EQ(MustEval("CAST('42' AS INTEGER)").int_value(), 42);
  EXPECT_TRUE(Eval("CAST('bad' AS INTEGER)").status().IsConversionError());
}

// --- Legacy constructs must be rejected by the CDW dialect ------------------

TEST_F(ExprEvalTest, LegacyFormatCastRejected) {
  auto s = Eval("CAST(B AS DATE FORMAT 'YYYY-MM-DD')").status();
  EXPECT_EQ(s.code(), common::StatusCode::kNotImplemented);
  EXPECT_NE(s.message().find("Hyper-Q"), std::string::npos);
}

TEST_F(ExprEvalTest, LegacyPowerOperatorRejected) {
  EXPECT_EQ(Eval("A ** 2").status().code(), common::StatusCode::kNotImplemented);
}

TEST_F(ExprEvalTest, LegacyFunctionsRejected) {
  EXPECT_EQ(Eval("ZEROIFNULL(N)").status().code(), common::StatusCode::kNotImplemented);
  EXPECT_EQ(Eval("NULLIFZERO(A)").status().code(), common::StatusCode::kNotImplemented);
  EXPECT_EQ(Eval("INDEX(B, 'l')").status().code(), common::StatusCode::kNotImplemented);
}

TEST_F(ExprEvalTest, PlaceholdersRejected) {
  EXPECT_TRUE(Eval(":CUST_ID").status().IsInvalid());
}

TEST_F(ExprEvalTest, UnknownFunctionRejected) {
  EXPECT_EQ(Eval("FROBNICATE(A)").status().code(), common::StatusCode::kNotImplemented);
}

TEST(AggregateDetectionTest, Helpers) {
  EXPECT_TRUE(IsAggregateFunction("COUNT"));
  EXPECT_TRUE(IsAggregateFunction("sum"));
  EXPECT_FALSE(IsAggregateFunction("TRIM"));
  EXPECT_TRUE(ContainsAggregate(*sql::ParseExpression("1 + COUNT(*)").ValueOrDie()));
  EXPECT_TRUE(ContainsAggregate(*sql::ParseExpression("CAST(SUM(x) AS INTEGER)").ValueOrDie()));
  EXPECT_FALSE(ContainsAggregate(*sql::ParseExpression("TRIM(a) || 'x'").ValueOrDie()));
}

TEST_F(ExprEvalTest, AggregateInScalarContextRejected) {
  EXPECT_TRUE(Eval("COUNT(A)").status().IsInvalid());
}

}  // namespace
}  // namespace hyperq::cdw

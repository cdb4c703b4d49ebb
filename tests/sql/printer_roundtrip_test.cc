#include <gtest/gtest.h>

#include "sql/parser.h"
#include "sql/printer.h"

namespace hyperq::sql {
namespace {

/// Property: Print(Parse(sql)) must itself parse, and printing that second
/// tree must reproduce the same text (fixed point after one round).
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintParsePrintIsStable) {
  auto stmt = ParseStatement(GetParam());
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::string printed = PrintStatement(**stmt);
  auto reparsed = ParseStatement(printed);
  ASSERT_TRUE(reparsed.ok()) << "failed to reparse: " << printed << "\n"
                             << reparsed.status().ToString();
  EXPECT_EQ(PrintStatement(**reparsed), printed) << "original: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Statements, RoundTripTest,
    ::testing::Values(
        "SELECT 1",
        "SELECT a, b + 1 AS c FROM t",
        "SELECT DISTINCT a FROM t WHERE a > 5 ORDER BY a DESC LIMIT 3",
        "SELECT t.a, s.b FROM t JOIN s ON t.k = s.k",
        "SELECT COUNT(*), SUM(x) FROM t GROUP BY g HAVING COUNT(*) > 1",
        "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
        "SELECT CASE a WHEN 1 THEN 'x' END FROM t",
        "SELECT a FROM t WHERE b IS NOT NULL AND c IN (1, 2)",
        "SELECT a FROM t WHERE b BETWEEN 1 AND 9",
        "SELECT a FROM t WHERE name LIKE 'A%'",
        "SELECT CAST(a AS DECIMAL(10,2)) FROM t",
        "SELECT CAST(a AS DATE FORMAT 'YYYY-MM-DD') FROM t",
        "SELECT TRY_CAST(a AS INTEGER), TRY_TO_DATE(b, 'YYYY-MM-DD') FROM t",
        "SELECT S.HQ_ROWNUM FROM stg S WHERE S.a IS NOT NULL AND TRY_CAST(S.a AS DATE) IS NULL",
        "SELECT TRIM(a), UPPER(b), SUBSTR(c, 1, 3) FROM t",
        "SELECT EXTRACT(YEAR FROM d), ADD_MONTHS(d, 3) FROM t",
        "SELECT DATE '2020-01-31', TIMESTAMP '2020-01-31 10:20:30.000000'",
        "SELECT a ** 2 FROM t",
        "SELECT -(a) + 3 FROM t",
        "SELECT :F1 || :F2",
        "INSERT INTO t VALUES (1, 'x', NULL)",
        "INSERT INTO t (a, b) VALUES (1, 2)",
        "INSERT INTO t SELECT a, b FROM s WHERE a > 0",
        "INSERT INTO t VALUES (TRIM(:A), CAST(:B AS DATE FORMAT 'YYYY-MM-DD'))",
        "UPDATE t SET a = 1 WHERE k = 2",
        "UPDATE t x SET a = S.v FROM stg S WHERE x.k = S.k",
        "UPDATE t SET a = :A WHERE k = :K ELSE INSERT VALUES (:K, :A)",
        "DELETE FROM t WHERE a < 0",
        "DELETE FROM t T USING stg S WHERE T.k = S.k",
        "MERGE INTO t T USING s S ON T.k = S.k WHEN MATCHED THEN UPDATE SET v = S.v WHEN NOT "
        "MATCHED THEN INSERT (k, v) VALUES (S.k, S.v)",
        "MERGE INTO t T USING (SELECT * FROM stg WHERE rn BETWEEN 1 AND 5) S ON T.k = S.k "
        "WHEN NOT MATCHED THEN INSERT VALUES (S.k)",
        "CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR(10), PRIMARY KEY (a))",
        "CREATE TABLE IF NOT EXISTS t (a DATE)",
        "DROP TABLE IF EXISTS t",
        "DROP TABLE db.t"));

TEST(PrinterTest, EscapesStringLiterals) {
  auto stmt = ParseStatement("SELECT 'it''s'").ValueOrDie();
  std::string printed = PrintStatement(*stmt);
  EXPECT_NE(printed.find("'it''s'"), std::string::npos);
  // And it still reparses to the same literal.
  auto reparsed = ParseStatement(printed).ValueOrDie();
  const auto& select = static_cast<const SelectStmt&>(*reparsed);
  EXPECT_EQ(static_cast<const LiteralExpr&>(*select.items[0].expr).value.string_value(), "it's");
}

TEST(PrinterTest, PlaceholdersPrintWithColon) {
  auto e = ParseExpression(":CUST_ID").ValueOrDie();
  EXPECT_EQ(PrintExpr(*e), ":CUST_ID");
}

TEST(PrinterTest, StarPrints) {
  auto stmt = ParseStatement("SELECT * FROM t").ValueOrDie();
  EXPECT_EQ(PrintStatement(*stmt), "SELECT * FROM t");
}

}  // namespace
}  // namespace hyperq::sql

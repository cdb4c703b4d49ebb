#include "sql/parser.h"

#include <gtest/gtest.h>

#include "sql/printer.h"

namespace hyperq::sql {
namespace {

template <typename T>
const T& As(const Statement& stmt) {
  return static_cast<const T&>(stmt);
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = ParseStatement("SELECT a, b FROM t WHERE a = 1").ValueOrDie();
  const auto& select = As<SelectStmt>(*stmt);
  EXPECT_EQ(select.items.size(), 2u);
  EXPECT_TRUE(select.has_from);
  EXPECT_EQ(select.from.name, "t");
  ASSERT_NE(select.where, nullptr);
}

TEST(ParserTest, SelAbbreviation) {
  auto stmt = ParseStatement("SEL * FROM t").ValueOrDie();
  EXPECT_EQ(stmt->kind, StatementKind::kSelect);
  EXPECT_EQ(As<SelectStmt>(*stmt).items[0].expr->kind, ExprKind::kStar);
}

TEST(ParserTest, SelectWithEverything) {
  auto stmt = ParseStatement(
                  "SELECT DISTINCT t.a, COUNT(*) AS n FROM db.t t "
                  "JOIN s ON t.k = s.k WHERE t.a > 5 GROUP BY t.a "
                  "HAVING COUNT(*) > 1 ORDER BY n DESC, 1 ASC LIMIT 10")
                  .ValueOrDie();
  const auto& select = As<SelectStmt>(*stmt);
  EXPECT_TRUE(select.distinct);
  EXPECT_EQ(select.joins.size(), 1u);
  EXPECT_EQ(select.group_by.size(), 1u);
  ASSERT_NE(select.having, nullptr);
  EXPECT_EQ(select.order_by.size(), 2u);
  EXPECT_TRUE(select.order_by[0].descending);
  EXPECT_FALSE(select.order_by[1].descending);
  EXPECT_EQ(select.top, 10);
}

TEST(ParserTest, LegacyTopN) {
  auto stmt = ParseStatement("SELECT TOP 5 a FROM t").ValueOrDie();
  EXPECT_EQ(As<SelectStmt>(*stmt).top, 5);
}

TEST(ParserTest, TableAliases) {
  auto stmt = ParseStatement("SELECT x.a FROM tbl AS x").ValueOrDie();
  EXPECT_EQ(As<SelectStmt>(*stmt).from.alias, "x");
  auto stmt2 = ParseStatement("SELECT x.a FROM tbl x").ValueOrDie();
  EXPECT_EQ(As<SelectStmt>(*stmt2).from.alias, "x");
}

TEST(ParserTest, QualifiedTableNames) {
  auto stmt = ParseStatement("SELECT a FROM PROD.CUSTOMER").ValueOrDie();
  EXPECT_EQ(As<SelectStmt>(*stmt).from.name, "PROD.CUSTOMER");
}

TEST(ParserTest, InsertValues) {
  auto stmt =
      ParseStatement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").ValueOrDie();
  const auto& ins = As<InsertStmt>(*stmt);
  EXPECT_EQ(ins.table, "t");
  EXPECT_EQ(ins.columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(ins.rows.size(), 2u);
}

TEST(ParserTest, InsAbbreviationWithoutInto) {
  auto stmt = ParseStatement("INS t VALUES (1)").ValueOrDie();
  EXPECT_EQ(As<InsertStmt>(*stmt).table, "t");
}

TEST(ParserTest, InsertWithPlaceholders) {
  auto stmt = ParseStatement(
                  "insert into PROD.CUSTOMER values (trim(:CUST_ID), trim(:CUST_NAME), "
                  "cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))")
                  .ValueOrDie();
  const auto& ins = As<InsertStmt>(*stmt);
  ASSERT_EQ(ins.rows.size(), 1u);
  EXPECT_EQ(ins.rows[0].size(), 3u);
  // Third expression: CAST with legacy FORMAT.
  const auto& cast = static_cast<const CastExpr&>(*ins.rows[0][2]);
  EXPECT_EQ(cast.format, "YYYY-MM-DD");
  EXPECT_EQ(cast.target.id, types::TypeId::kDate);
}

TEST(ParserTest, TryCast) {
  auto e = ParseExpression("TRY_CAST(S.a AS INTEGER)").ValueOrDie();
  ASSERT_EQ(e->kind, ExprKind::kCast);
  const auto& cast = static_cast<const CastExpr&>(*e);
  EXPECT_TRUE(cast.try_cast);
  EXPECT_EQ(cast.target.id, types::TypeId::kInt32);
  EXPECT_FALSE(static_cast<const CastExpr&>(*ParseExpression("CAST(a AS INTEGER)").ValueOrDie())
                   .try_cast);
  // Without a parenthesis it is an ordinary column name.
  EXPECT_EQ(ParseExpression("try_cast + 1").ValueOrDie()->kind, ExprKind::kBinary);
}

TEST(ParserTest, InsertSelect) {
  auto stmt = ParseStatement("INSERT INTO t SELECT a FROM s").ValueOrDie();
  const auto& ins = As<InsertStmt>(*stmt);
  ASSERT_NE(ins.select, nullptr);
  EXPECT_TRUE(ins.rows.empty());
}

TEST(ParserTest, Update) {
  auto stmt = ParseStatement("UPDATE t SET a = 1, b = b + 1 WHERE k = 5").ValueOrDie();
  const auto& upd = As<UpdateStmt>(*stmt);
  EXPECT_EQ(upd.assignments.size(), 2u);
  EXPECT_FALSE(upd.has_else_insert);
  ASSERT_NE(upd.where, nullptr);
}

TEST(ParserTest, UpdateFromStaging) {
  auto stmt = ParseStatement("UPDATE t SET a = S.a FROM stg S WHERE t.k = S.k").ValueOrDie();
  const auto& upd = As<UpdateStmt>(*stmt);
  EXPECT_TRUE(upd.has_from);
  EXPECT_EQ(upd.from.name, "stg");
  EXPECT_EQ(upd.from.alias, "S");
}

TEST(ParserTest, LegacyAtomicUpsert) {
  auto stmt = ParseStatement(
                  "UPDATE t SET amt = :A WHERE k = :K ELSE INSERT VALUES (:K, :A)")
                  .ValueOrDie();
  const auto& upd = As<UpdateStmt>(*stmt);
  EXPECT_TRUE(upd.has_else_insert);
  EXPECT_EQ(upd.else_insert_values.size(), 2u);
}

TEST(ParserTest, Delete) {
  auto stmt = ParseStatement("DELETE FROM t WHERE a < 0").ValueOrDie();
  EXPECT_EQ(stmt->kind, StatementKind::kDelete);
}

TEST(ParserTest, DeleteUsing) {
  auto stmt = ParseStatement("DELETE FROM t USING stg S WHERE t.k = S.k").ValueOrDie();
  const auto& del = As<DeleteStmt>(*stmt);
  EXPECT_TRUE(del.has_using);
  EXPECT_EQ(del.using_table.alias, "S");
}

TEST(ParserTest, LegacyDelAll) {
  auto stmt = ParseStatement("DEL FROM t ALL").ValueOrDie();
  EXPECT_EQ(stmt->kind, StatementKind::kDelete);
  EXPECT_EQ(As<DeleteStmt>(*stmt).where, nullptr);
}

TEST(ParserTest, Merge) {
  auto stmt = ParseStatement(
                  "MERGE INTO t T USING stg S ON T.k = S.k "
                  "WHEN MATCHED THEN UPDATE SET v = S.v "
                  "WHEN NOT MATCHED THEN INSERT (k, v) VALUES (S.k, S.v)")
                  .ValueOrDie();
  const auto& merge = As<MergeStmt>(*stmt);
  EXPECT_EQ(merge.target.alias, "T");
  EXPECT_EQ(merge.matched_update.size(), 1u);
  EXPECT_EQ(merge.insert_columns.size(), 2u);
  EXPECT_EQ(merge.insert_values.size(), 2u);
}

TEST(ParserTest, CreateTableWithConstraints) {
  auto stmt = ParseStatement(
                  "CREATE MULTISET TABLE PROD.CUSTOMER ("
                  "CUST_ID VARCHAR(5) NOT NULL, "
                  "CUST_NAME VARCHAR(50) CHARACTER SET UNICODE, "
                  "JOIN_DATE DATE) UNIQUE PRIMARY INDEX (CUST_ID)")
                  .ValueOrDie();
  const auto& create = As<CreateTableStmt>(*stmt);
  EXPECT_EQ(create.table, "PROD.CUSTOMER");
  EXPECT_EQ(create.schema.num_fields(), 3u);
  EXPECT_FALSE(create.schema.field(0).nullable);
  EXPECT_EQ(create.schema.field(1).type.charset, types::CharSet::kUnicode);
  EXPECT_TRUE(create.unique_primary);
  EXPECT_EQ(create.primary_key, (std::vector<std::string>{"CUST_ID"}));
}

TEST(ParserTest, CreateTableInlinePrimaryKey) {
  auto stmt =
      ParseStatement("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))").ValueOrDie();
  const auto& create = As<CreateTableStmt>(*stmt);
  EXPECT_EQ(create.primary_key.size(), 2u);
}

TEST(ParserTest, DropTable) {
  auto stmt = ParseStatement("DROP TABLE IF EXISTS t").ValueOrDie();
  const auto& drop = As<DropTableStmt>(*stmt);
  EXPECT_TRUE(drop.if_exists);
  EXPECT_EQ(drop.table, "t");
}

TEST(ParserTest, ExpressionPrecedence) {
  // 1 + 2 * 3 = 7, not 9.
  auto e = ParseExpression("1 + 2 * 3").ValueOrDie();
  const auto& add = static_cast<const BinaryExpr&>(*e);
  EXPECT_EQ(add.op, BinaryOp::kAdd);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*add.right).op, BinaryOp::kMul);
}

TEST(ParserTest, PowerIsRightAssociative) {
  auto e = ParseExpression("2 ** 3 ** 2").ValueOrDie();
  const auto& outer = static_cast<const BinaryExpr&>(*e);
  EXPECT_EQ(outer.op, BinaryOp::kPow);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*outer.right).op, BinaryOp::kPow);
}

TEST(ParserTest, ComparisonChainsWithLogical) {
  auto e = ParseExpression("a = 1 AND b <> 2 OR NOT c IS NULL").ValueOrDie();
  EXPECT_EQ(static_cast<const BinaryExpr&>(*e).op, BinaryOp::kOr);
}

TEST(ParserTest, InBetweenLike) {
  EXPECT_EQ(ParseExpression("a IN (1, 2, 3)").ValueOrDie()->kind, ExprKind::kInList);
  EXPECT_EQ(ParseExpression("a NOT IN (1)").ValueOrDie()->kind, ExprKind::kInList);
  EXPECT_EQ(ParseExpression("a BETWEEN 1 AND 5").ValueOrDie()->kind, ExprKind::kBetween);
  EXPECT_EQ(ParseExpression("a NOT BETWEEN 1 AND 5").ValueOrDie()->kind, ExprKind::kBetween);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*ParseExpression("a LIKE 'x%'").ValueOrDie()).op,
            BinaryOp::kLike);
}

TEST(ParserTest, CaseExpressions) {
  auto searched = ParseExpression("CASE WHEN a = 1 THEN 'one' ELSE 'other' END").ValueOrDie();
  EXPECT_EQ(searched->kind, ExprKind::kCase);
  EXPECT_EQ(static_cast<const CaseExpr&>(*searched).operand, nullptr);
  auto simple = ParseExpression("CASE a WHEN 1 THEN 'one' END").ValueOrDie();
  EXPECT_NE(static_cast<const CaseExpr&>(*simple).operand, nullptr);
}

TEST(ParserTest, SpecialFunctionForms) {
  // SUBSTRING(x FROM 2 FOR 3) normalizes to SUBSTR(x, 2, 3).
  auto substr = ParseExpression("SUBSTRING(x FROM 2 FOR 3)").ValueOrDie();
  const auto& fn = static_cast<const FunctionExpr&>(*substr);
  EXPECT_EQ(fn.name, "SUBSTR");
  EXPECT_EQ(fn.args.size(), 3u);
  // POSITION(a IN b) normalizes to POSITION(a, b).
  auto pos = ParseExpression("POSITION('x' IN y)").ValueOrDie();
  EXPECT_EQ(static_cast<const FunctionExpr&>(*pos).args.size(), 2u);
  // TRIM(LEADING FROM x) -> LTRIM(x).
  auto ltrim = ParseExpression("TRIM(LEADING FROM x)").ValueOrDie();
  EXPECT_EQ(static_cast<const FunctionExpr&>(*ltrim).name, "LTRIM");
}

TEST(ParserTest, DateAndTimestampLiterals) {
  auto d = ParseExpression("DATE '2012-01-01'").ValueOrDie();
  EXPECT_TRUE(static_cast<const LiteralExpr&>(*d).value.is_date());
  auto ts = ParseExpression("TIMESTAMP '2012-01-01 10:00:00'").ValueOrDie();
  EXPECT_TRUE(static_cast<const LiteralExpr&>(*ts).value.is_timestamp());
}

TEST(ParserTest, CountDistinct) {
  auto e = ParseExpression("COUNT(DISTINCT a)").ValueOrDie();
  EXPECT_TRUE(static_cast<const FunctionExpr&>(*e).distinct);
}

TEST(ParserTest, ScriptSplitsOnSemicolons) {
  auto stmts = ParseScript("SELECT 1; SELECT 2; ; SELECT 3;").ValueOrDie();
  EXPECT_EQ(stmts.size(), 3u);
}

TEST(ParserTest, ErrorsCarryLineInfo) {
  auto r = ParseStatement("SELECT a FROM\nWHERE x = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(ParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseStatement("SELECT 1 SELECT 2").ok());
}

TEST(ParserTest, OversizedNumbersAreParseErrors) {
  for (const char* sql : {"SELECT 99999999999999999999", "SELECT 1.5e999999",
                          "SELECT TOP 99999999999999999999 a FROM t",
                          "SELECT a FROM t LIMIT 99999999999999999999",
                          "SELECT CAST(1 AS VARCHAR(99999999999))"}) {
    auto r = ParseStatement(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(r.status().IsParseError()) << sql << ": " << r.status().ToString();
  }
  // The largest literals that fit still parse.
  EXPECT_TRUE(ParseStatement("SELECT 9223372036854775807, 1.5e300").ok());
}

TEST(ParserTest, RejectsPositionalParameters) {
  EXPECT_FALSE(ParseStatement("SELECT * FROM t WHERE a = ?").ok());
}

}  // namespace
}  // namespace hyperq::sql

#include "cdw/executor.h"

#include <gtest/gtest.h>

#include "cdw/join_dml.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace hyperq::cdw {
namespace {

using types::Field;
using types::Schema;
using types::TypeDesc;
using types::Value;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : executor_(&catalog_) {
    Schema customers;
    customers.AddField(Field("ID", TypeDesc::Int64(), false));
    customers.AddField(Field("NAME", TypeDesc::Varchar(20)));
    customers.AddField(Field("JOINED", TypeDesc::Date()));
    catalog_.CreateTable("CUSTOMERS", customers, {"ID"}, /*unique=*/true).ok();
  }

  ExecResult Exec(const std::string& sql, bool enforce_unique = false) {
    ExecOptions options;
    options.enforce_unique_primary = enforce_unique;
    auto result = executor_.ExecuteSql(sql, options);
    EXPECT_TRUE(result.ok()) << sql << "\n  -> " << result.status().ToString();
    return result.ok() ? std::move(result).ValueOrDie() : ExecResult{};
  }

  common::Status ExecError(const std::string& sql, bool enforce_unique = false) {
    ExecOptions options;
    options.enforce_unique_primary = enforce_unique;
    auto result = executor_.ExecuteSql(sql, options);
    EXPECT_FALSE(result.ok()) << sql << " unexpectedly succeeded";
    return result.ok() ? common::Status::OK() : result.status();
  }

  void SeedCustomers() {
    Exec("INSERT INTO CUSTOMERS VALUES (1, 'Ada', DATE '2001-01-01'), "
         "(2, 'Bob', DATE '2002-02-02'), (3, 'Cyd', DATE '2003-03-03')");
  }

  Catalog catalog_;
  Executor executor_;
};

TEST_F(ExecutorTest, InsertValuesAndCount) {
  SeedCustomers();
  auto result = Exec("SELECT COUNT(*) FROM CUSTOMERS");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].int_value(), 3);
}

TEST_F(ExecutorTest, InsertReportsActivityCount) {
  auto result = Exec("INSERT INTO CUSTOMERS VALUES (1, 'A', NULL), (2, 'B', NULL)");
  EXPECT_EQ(result.rows_inserted, 2u);
  EXPECT_EQ(result.activity_count(), 2u);
}

TEST_F(ExecutorTest, InsertCoercesTypes) {
  Exec("INSERT INTO CUSTOMERS VALUES ('7', 42, '2020-05-05')");
  auto result = Exec("SELECT ID, NAME, JOINED FROM CUSTOMERS");
  EXPECT_EQ(result.rows[0][0].int_value(), 7);       // '7' -> BIGINT
  EXPECT_EQ(result.rows[0][1].string_value(), "42"); // 42 -> VARCHAR
  EXPECT_TRUE(result.rows[0][2].is_date());
}

TEST_F(ExecutorTest, InsertWithColumnList) {
  Exec("INSERT INTO CUSTOMERS (NAME, ID) VALUES ('X', 9)");
  auto result = Exec("SELECT ID, NAME, JOINED FROM CUSTOMERS");
  EXPECT_EQ(result.rows[0][0].int_value(), 9);
  EXPECT_TRUE(result.rows[0][2].is_null());
}

TEST_F(ExecutorTest, NotNullViolationAbortsWholeStatement) {
  auto s = ExecError("INSERT INTO CUSTOMERS VALUES (1, 'ok', NULL), (NULL, 'bad', NULL)");
  EXPECT_TRUE(s.IsConversionError());
  // Set-oriented: nothing inserted.
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS").rows[0][0].int_value(), 0);
}

TEST_F(ExecutorTest, ConversionFailureAbortsWholeStatement) {
  auto s = ExecError("INSERT INTO CUSTOMERS VALUES (1, 'a', NULL), ('xx', 'b', NULL)");
  EXPECT_TRUE(s.IsConversionError());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS").rows[0][0].int_value(), 0);
}

TEST_F(ExecutorTest, ErrorDoesNotIdentifyRow) {
  // Cloud semantics: bulk errors are chunk-level, no tuple pinpointed.
  auto s = ExecError("INSERT INTO CUSTOMERS VALUES (1, 'a', NULL), ('xx', 'b', NULL)");
  EXPECT_EQ(s.message().find("row"), std::string::npos) << s.message();
}

TEST_F(ExecutorTest, UniquenessNotEnforcedNatively) {
  // Without the Hyper-Q emulation flag, duplicate keys silently load — the
  // CDW treats the unique primary index as metadata only.
  Exec("INSERT INTO CUSTOMERS VALUES (1, 'a', NULL)");
  Exec("INSERT INTO CUSTOMERS VALUES (1, 'dup', NULL)");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS").rows[0][0].int_value(), 2);
}

TEST_F(ExecutorTest, UniquenessEmulationRejectsDuplicates) {
  Exec("INSERT INTO CUSTOMERS VALUES (1, 'a', NULL)", /*enforce=*/true);
  auto s = ExecError("INSERT INTO CUSTOMERS VALUES (1, 'dup', NULL)", /*enforce=*/true);
  EXPECT_TRUE(s.IsConstraintViolation());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS").rows[0][0].int_value(), 1);
}

TEST_F(ExecutorTest, UniquenessEmulationCatchesIntraBatchDuplicates) {
  auto s =
      ExecError("INSERT INTO CUSTOMERS VALUES (5, 'a', NULL), (5, 'b', NULL)", /*enforce=*/true);
  EXPECT_TRUE(s.IsConstraintViolation());
}

TEST_F(ExecutorTest, SelectProjectionAndAliases) {
  SeedCustomers();
  auto result = Exec("SELECT NAME AS WHO, ID + 100 AS shifted FROM CUSTOMERS WHERE ID = 2");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.schema.field(0).name, "WHO");
  EXPECT_EQ(result.schema.field(1).name, "shifted");
  EXPECT_EQ(result.rows[0][1].int_value(), 102);
}

TEST_F(ExecutorTest, SelectStar) {
  SeedCustomers();
  auto result = Exec("SELECT * FROM CUSTOMERS WHERE ID = 1");
  EXPECT_EQ(result.schema.num_fields(), 3u);
  EXPECT_EQ(result.rows[0][1].string_value(), "Ada");
}

TEST_F(ExecutorTest, SelectOrderByAndLimit) {
  SeedCustomers();
  auto result = Exec("SELECT ID FROM CUSTOMERS ORDER BY ID DESC LIMIT 2");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].int_value(), 3);
  EXPECT_EQ(result.rows[1][0].int_value(), 2);
}

TEST_F(ExecutorTest, OrderByPosition) {
  SeedCustomers();
  auto result = Exec("SELECT NAME, ID FROM CUSTOMERS ORDER BY 2 DESC");
  EXPECT_EQ(result.rows[0][1].int_value(), 3);
}

TEST_F(ExecutorTest, SelectDistinct) {
  SeedCustomers();
  Exec("INSERT INTO CUSTOMERS VALUES (4, 'Ada', NULL)");
  auto result = Exec("SELECT DISTINCT NAME FROM CUSTOMERS");
  EXPECT_EQ(result.rows.size(), 3u);
}

TEST_F(ExecutorTest, Aggregates) {
  SeedCustomers();
  auto result = Exec("SELECT COUNT(*), MIN(ID), MAX(ID), SUM(ID), AVG(ID) FROM CUSTOMERS");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].int_value(), 3);
  EXPECT_EQ(result.rows[0][1].int_value(), 1);
  EXPECT_EQ(result.rows[0][2].int_value(), 3);
  EXPECT_EQ(result.rows[0][3].int_value(), 6);
  EXPECT_DOUBLE_EQ(result.rows[0][4].float_value(), 2.0);
}

TEST_F(ExecutorTest, AggregatesSkipNulls) {
  Exec("INSERT INTO CUSTOMERS VALUES (1, NULL, NULL), (2, 'x', NULL)");
  auto result = Exec("SELECT COUNT(NAME), COUNT(*) FROM CUSTOMERS");
  EXPECT_EQ(result.rows[0][0].int_value(), 1);
  EXPECT_EQ(result.rows[0][1].int_value(), 2);
}

TEST_F(ExecutorTest, EmptyAggregates) {
  auto result = Exec("SELECT COUNT(*), SUM(ID), MIN(ID) FROM CUSTOMERS");
  EXPECT_EQ(result.rows[0][0].int_value(), 0);
  EXPECT_TRUE(result.rows[0][1].is_null());
  EXPECT_TRUE(result.rows[0][2].is_null());
}

TEST_F(ExecutorTest, GroupByWithHaving) {
  SeedCustomers();
  Exec("INSERT INTO CUSTOMERS VALUES (4, 'Ada', NULL), (5, 'Ada', NULL)");
  auto result = Exec(
      "SELECT NAME, COUNT(*) FROM CUSTOMERS GROUP BY NAME HAVING COUNT(*) > 1 ORDER BY NAME");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].string_value(), "Ada");
  EXPECT_EQ(result.rows[0][1].int_value(), 3);
}

TEST_F(ExecutorTest, CountDistinct) {
  SeedCustomers();
  Exec("INSERT INTO CUSTOMERS VALUES (4, 'Ada', NULL)");
  auto result = Exec("SELECT COUNT(DISTINCT NAME) FROM CUSTOMERS");
  EXPECT_EQ(result.rows[0][0].int_value(), 3);
}

TEST_F(ExecutorTest, Joins) {
  SeedCustomers();
  Schema orders;
  orders.AddField(Field("CUST_ID", TypeDesc::Int64()));
  orders.AddField(Field("AMT", TypeDesc::Int64()));
  catalog_.CreateTable("ORDERS", orders).ok();
  Exec("INSERT INTO ORDERS VALUES (1, 10), (1, 20), (3, 5)");
  auto result = Exec(
      "SELECT c.NAME, SUM(o.AMT) FROM CUSTOMERS c JOIN ORDERS o ON c.ID = o.CUST_ID "
      "GROUP BY c.NAME ORDER BY c.NAME");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].string_value(), "Ada");
  EXPECT_EQ(result.rows[0][1].int_value(), 30);
  EXPECT_EQ(result.rows[1][1].int_value(), 5);
}

TEST_F(ExecutorTest, InsertSelect) {
  SeedCustomers();
  Schema copy_schema;
  copy_schema.AddField(Field("ID", TypeDesc::Int64()));
  copy_schema.AddField(Field("NAME", TypeDesc::Varchar(20)));
  catalog_.CreateTable("COPYTBL", copy_schema).ok();
  auto result = Exec("INSERT INTO COPYTBL SELECT ID, NAME FROM CUSTOMERS WHERE ID > 1");
  EXPECT_EQ(result.rows_inserted, 2u);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM COPYTBL").rows[0][0].int_value(), 2);
}

TEST_F(ExecutorTest, Update) {
  SeedCustomers();
  auto result = Exec("UPDATE CUSTOMERS SET NAME = 'Ed' WHERE ID >= 2");
  EXPECT_EQ(result.rows_updated, 2u);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS WHERE NAME = 'Ed'").rows[0][0].int_value(), 2);
}

TEST_F(ExecutorTest, UpdateFromSourceTable) {
  SeedCustomers();
  Schema stg;
  stg.AddField(Field("K", TypeDesc::Int64()));
  stg.AddField(Field("NEWNAME", TypeDesc::Varchar(20)));
  catalog_.CreateTable("STG", stg).ok();
  Exec("INSERT INTO STG VALUES (1, 'Ada2'), (3, 'Cyd2')");
  auto result = Exec("UPDATE CUSTOMERS T SET NAME = S.NEWNAME FROM STG S WHERE T.ID = S.K");
  EXPECT_EQ(result.rows_updated, 2u);
  EXPECT_EQ(Exec("SELECT NAME FROM CUSTOMERS WHERE ID = 1").rows[0][0].string_value(), "Ada2");
}

TEST_F(ExecutorTest, Delete) {
  SeedCustomers();
  auto result = Exec("DELETE FROM CUSTOMERS WHERE ID <> 2");
  EXPECT_EQ(result.rows_deleted, 2u);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS").rows[0][0].int_value(), 1);
}

TEST_F(ExecutorTest, DeleteUsing) {
  SeedCustomers();
  Schema stg;
  stg.AddField(Field("K", TypeDesc::Int64()));
  catalog_.CreateTable("DOOMED", stg).ok();
  Exec("INSERT INTO DOOMED VALUES (1), (3)");
  auto result = Exec("DELETE FROM CUSTOMERS T USING DOOMED S WHERE T.ID = S.K");
  EXPECT_EQ(result.rows_deleted, 2u);
  EXPECT_EQ(Exec("SELECT ID FROM CUSTOMERS").rows[0][0].int_value(), 2);
}

TEST_F(ExecutorTest, DeleteAll) {
  SeedCustomers();
  auto result = Exec("DELETE FROM CUSTOMERS");
  EXPECT_EQ(result.rows_deleted, 3u);
}

TEST_F(ExecutorTest, MergeUpdatesAndInserts) {
  SeedCustomers();
  Schema stg;
  stg.AddField(Field("K", TypeDesc::Int64()));
  stg.AddField(Field("N", TypeDesc::Varchar(20)));
  catalog_.CreateTable("STG", stg).ok();
  Exec("INSERT INTO STG VALUES (2, 'Bob2'), (9, 'New')");
  auto result = Exec(
      "MERGE INTO CUSTOMERS T USING STG S ON T.ID = S.K "
      "WHEN MATCHED THEN UPDATE SET NAME = S.N "
      "WHEN NOT MATCHED THEN INSERT (ID, NAME) VALUES (S.K, S.N)");
  EXPECT_EQ(result.rows_updated, 1u);
  EXPECT_EQ(result.rows_inserted, 1u);
  EXPECT_EQ(Exec("SELECT NAME FROM CUSTOMERS WHERE ID = 2").rows[0][0].string_value(), "Bob2");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS").rows[0][0].int_value(), 4);
}

TEST_F(ExecutorTest, MergeWithUniquenessEmulation) {
  SeedCustomers();
  Schema stg;
  stg.AddField(Field("K", TypeDesc::Int64()));
  catalog_.CreateTable("STG2", stg).ok();
  // Inserting key 1 via NOT MATCHED ON a different predicate would duplicate.
  Exec("INSERT INTO STG2 VALUES (1)");
  auto s = ExecError(
      "MERGE INTO CUSTOMERS T USING STG2 S ON T.ID = S.K + 100 "
      "WHEN NOT MATCHED THEN INSERT (ID) VALUES (S.K)",
      /*enforce=*/true);
  EXPECT_TRUE(s.IsConstraintViolation());
}

// --- join DML paths ---------------------------------------------------------

TEST_F(ExecutorTest, MergeMultiMatchStillErrorsOnHashPath) {
  SeedCustomers();
  Schema stg;
  stg.AddField(Field("K", TypeDesc::Int64()));
  catalog_.CreateTable("STG", stg).ok();
  Exec("INSERT INTO STG VALUES (2)");
  const std::string merge =
      "MERGE INTO CUSTOMERS T USING STG S ON T.ID = S.K "
      "WHEN MATCHED THEN UPDATE SET NAME = 'hit'";
  EXPECT_EQ(Exec(merge).join_path, JoinPath::kHash);
  Exec("INSERT INTO CUSTOMERS VALUES (2, 'Bob again', NULL)");  // not enforced natively
  auto s = ExecError(merge);
  EXPECT_EQ(s.code(), common::StatusCode::kInvalid);
  EXPECT_EQ(s.message(), "MERGE source row matches multiple target rows");
}

TEST_F(ExecutorTest, UpdateFromDuplicateSourceKeysTakesFirstSourceRow) {
  SeedCustomers();
  Schema stg;
  stg.AddField(Field("K", TypeDesc::Int32()));  // INT widths share one key family
  stg.AddField(Field("NEWNAME", TypeDesc::Varchar(20)));
  catalog_.CreateTable("STG", stg).ok();
  Exec("INSERT INTO STG VALUES (2, 'first'), (3, 'only'), (2, 'second')");
  auto result = Exec("UPDATE CUSTOMERS T SET NAME = S.NEWNAME FROM STG S WHERE T.ID = S.K");
  EXPECT_EQ(result.join_path, JoinPath::kHash);
  EXPECT_EQ(result.rows_updated, 2u);
  EXPECT_EQ(Exec("SELECT NAME FROM CUSTOMERS WHERE ID = 2").rows[0][0].string_value(), "first");
  EXPECT_EQ(Exec("SELECT NAME FROM CUSTOMERS WHERE ID = 3").rows[0][0].string_value(), "only");
}

TEST_F(ExecutorTest, VarcharAgainstIntegerOnFallsBackWithSameError) {
  SeedCustomers();
  Schema stg;
  stg.AddField(Field("K", TypeDesc::Varchar(8)));
  catalog_.CreateTable("STG", stg).ok();
  Exec("INSERT INTO STG VALUES ('2')");
  const std::string merge =
      "MERGE INTO CUSTOMERS T USING STG S ON T.ID = S.K "
      "WHEN MATCHED THEN UPDATE SET NAME = 'hit'";
  // '2' parses to the number 2: a match byte equality would miss.
  auto ok = Exec(merge);
  EXPECT_EQ(ok.join_path, JoinPath::kNestedLoop);
  EXPECT_EQ(ok.rows_updated, 1u);

  Exec("INSERT INTO STG VALUES ('two')");
  auto stmt = sql::ParseStatement(merge);
  ASSERT_TRUE(stmt.ok());
  auto planned = executor_.Execute(**stmt);
  auto oracle = ExecuteOnNestedLoop(&catalog_, **stmt);
  ASSERT_FALSE(planned.ok());
  ASSERT_FALSE(oracle.ok());
  EXPECT_TRUE(planned.status().IsConversionError());
  EXPECT_EQ(planned.status().message(), oracle.status().message());
}

TEST_F(ExecutorTest, UnresolvableOnColumnAgainstEmptyTargetStillSucceeds) {
  Schema stg;
  stg.AddField(Field("K", TypeDesc::Int64()));
  catalog_.CreateTable("STG", stg).ok();
  Exec("INSERT INTO STG VALUES (7), (8)");
  // The ON is never evaluated when there is no target row to pair with.
  auto result = Exec(
      "MERGE INTO CUSTOMERS T USING STG S ON T.NOPE = S.K "
      "WHEN NOT MATCHED THEN INSERT (ID) VALUES (S.K)");
  EXPECT_EQ(result.join_path, JoinPath::kNestedLoop);
  EXPECT_EQ(result.rows_inserted, 2u);
}

TEST_F(ExecutorTest, RangeRestrictedStagedUpdateAndDeleteTakeHashPath) {
  SeedCustomers();
  Schema stg;
  stg.AddField(Field("ID", TypeDesc::Int64()));
  stg.AddField(Field("NAME", TypeDesc::Varchar(20)));
  stg.AddField(Field("HQ_ROWNUM", TypeDesc::Int64()));
  catalog_.CreateTable("STG", stg).ok();
  Exec("INSERT INTO STG VALUES (1, 'one', 1), (2, 'two', 2), (3, 'three', 3)");
  Schema layout;
  layout.AddField(Field("ID", TypeDesc::Int64()));
  layout.AddField(Field("NAME", TypeDesc::Varchar(20)));
  sql::BindOptions bind;
  bind.staging_table = "STG";
  bind.row_number_column = "HQ_ROWNUM";
  bind.first_row = 2;
  bind.last_row = 3;
  auto bound_exec = [&](const std::string& legacy) {
    auto stmt = sql::ParseStatement(legacy);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto bound = sql::BindDmlToStaging(**stmt, layout, bind);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    auto result = executor_.Execute(**bound);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : ExecResult{};
  };
  auto updated = bound_exec("UPDATE CUSTOMERS SET NAME = :NAME WHERE ID = :ID");
  EXPECT_EQ(updated.join_path, JoinPath::kHash);
  EXPECT_EQ(updated.rows_updated, 2u);  // row 1 is outside the range
  EXPECT_EQ(Exec("SELECT NAME FROM CUSTOMERS WHERE ID = 1").rows[0][0].string_value(), "Ada");
  EXPECT_EQ(Exec("SELECT NAME FROM CUSTOMERS WHERE ID = 3").rows[0][0].string_value(), "three");

  auto deleted = bound_exec("DELETE FROM CUSTOMERS WHERE ID = :ID");
  EXPECT_EQ(deleted.join_path, JoinPath::kHash);
  EXPECT_EQ(deleted.rows_deleted, 2u);
  EXPECT_EQ(Exec("SELECT ID FROM CUSTOMERS").rows.size(), 1u);
}

TEST_F(ExecutorTest, CreateAndDropTable) {
  Exec("CREATE TABLE NEWTBL (A INTEGER, B VARCHAR(5))");
  EXPECT_TRUE(catalog_.HasTable("NEWTBL"));
  EXPECT_FALSE(ExecError("CREATE TABLE NEWTBL (A INTEGER)").ok());
  Exec("CREATE TABLE IF NOT EXISTS NEWTBL (A INTEGER)");
  Exec("DROP TABLE NEWTBL");
  EXPECT_FALSE(catalog_.HasTable("NEWTBL"));
  EXPECT_FALSE(ExecError("DROP TABLE NEWTBL").ok());
  Exec("DROP TABLE IF EXISTS NEWTBL");
}

TEST_F(ExecutorTest, FromlessSelect) {
  auto result = Exec("SELECT 1 + 1, 'x'");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].int_value(), 2);
}

TEST_F(ExecutorTest, FromlessSelectWithAndWithoutCount) {
  auto plain = Exec("SELECT 2 * 3 AS SIX");
  ASSERT_EQ(plain.rows.size(), 1u);
  EXPECT_EQ(plain.rows[0][0].int_value(), 6);
  auto counted = Exec("SELECT COUNT(*), 1 + 1");
  ASSERT_EQ(counted.rows.size(), 1u);
  EXPECT_EQ(counted.rows[0][0].int_value(), 1);
  EXPECT_EQ(counted.rows[0][1].int_value(), 2);
  EXPECT_TRUE(Exec("SELECT 1 WHERE 1 = 0").rows.empty());
  auto none = Exec("SELECT COUNT(*) WHERE 1 = 0");
  ASSERT_EQ(none.rows.size(), 1u);
  EXPECT_EQ(none.rows[0][0].int_value(), 0);
}

TEST_F(ExecutorTest, ThreeTableJoinWithDistinctAndOrder) {
  SeedCustomers();
  Exec("CREATE TABLE ORDERS (CUST_ID INTEGER, AMT INTEGER, PROD VARCHAR(4))");
  Exec("CREATE TABLE PRODUCTS (PID VARCHAR(4), PNAME VARCHAR(20))");
  Exec("INSERT INTO ORDERS VALUES (1, 10, 'P1'), (1, 20, 'P2'), (3, 5, 'P1'), (2, 7, 'P3'), "
       "(1, 10, 'P1'), (4, 50, 'P2')");
  Exec("INSERT INTO PRODUCTS VALUES ('P1', 'Widget'), ('P2', 'Gadget'), ('P3', 'Gizmo')");
  auto result = Exec(
      "SELECT DISTINCT c.NAME, p.PNAME, o.AMT FROM CUSTOMERS c "
      "JOIN ORDERS o ON c.ID = o.CUST_ID JOIN PRODUCTS p ON o.PROD = p.PID "
      "WHERE o.AMT >= 7 ORDER BY NAME, AMT DESC");
  ASSERT_EQ(result.rows.size(), 3u);
  auto expect_row = [&](size_t i, const char* name, const char* product, int64_t amt) {
    EXPECT_EQ(result.rows[i][0].string_value(), name) << i;
    EXPECT_EQ(result.rows[i][1].string_value(), product) << i;
    EXPECT_EQ(result.rows[i][2].int_value(), amt) << i;
  };
  expect_row(0, "Ada", "Gadget", 20);
  expect_row(1, "Ada", "Widget", 10);
  expect_row(2, "Bob", "Gizmo", 7);
  // Each ON sees only the tables to its left.
  EXPECT_TRUE(ExecError("SELECT c.NAME FROM CUSTOMERS c JOIN ORDERS o ON o.PROD = p.PID "
                        "JOIN PRODUCTS p ON c.ID = o.CUST_ID")
                  .IsNotFound());
}

TEST_F(ExecutorTest, UpdateSwapReadsPreStatementValues) {
  Exec("CREATE TABLE PAIRS (K INTEGER, A INTEGER, B INTEGER)");
  Exec("INSERT INTO PAIRS VALUES (1, 1, 2), (2, 3, 4)");
  EXPECT_EQ(Exec("UPDATE PAIRS SET A = B, B = A").rows_updated, 2u);
  auto swapped = Exec("SELECT A, B FROM PAIRS ORDER BY A");
  ASSERT_EQ(swapped.rows.size(), 2u);
  EXPECT_EQ(swapped.rows[0][0].int_value(), 2);
  EXPECT_EQ(swapped.rows[0][1].int_value(), 1);
  EXPECT_EQ(swapped.rows[1][0].int_value(), 4);
  EXPECT_EQ(swapped.rows[1][1].int_value(), 3);
}

TEST_F(ExecutorTest, MergeSetReadsTargetColumnsItWrites) {
  Exec("CREATE TABLE ACCT (ID INTEGER, BAL INTEGER, PREV INTEGER)");
  Exec("CREATE TABLE DELTA (K INTEGER, D INTEGER)");
  Exec("INSERT INTO ACCT VALUES (1, 100, NULL), (2, 200, NULL)");
  Exec("INSERT INTO DELTA VALUES (2, 5), (3, 7)");
  auto result = Exec(
      "MERGE INTO ACCT T USING DELTA S ON T.ID = S.K "
      "WHEN MATCHED THEN UPDATE SET BAL = T.BAL + S.D, PREV = T.BAL "
      "WHEN NOT MATCHED THEN INSERT (ID, BAL) VALUES (S.K, S.D)");
  EXPECT_EQ(result.rows_updated, 1u);
  EXPECT_EQ(result.rows_inserted, 1u);
  auto rows = Exec("SELECT ID, BAL, PREV FROM ACCT ORDER BY ID");
  ASSERT_EQ(rows.rows.size(), 3u);
  EXPECT_EQ(rows.rows[0][1].int_value(), 100);
  EXPECT_TRUE(rows.rows[0][2].is_null());
  EXPECT_EQ(rows.rows[1][1].int_value(), 205);
  EXPECT_EQ(rows.rows[1][2].int_value(), 200);
  EXPECT_EQ(rows.rows[2][1].int_value(), 7);
  EXPECT_TRUE(rows.rows[2][2].is_null());
}

TEST_F(ExecutorTest, MissingTableIsNotFound) {
  EXPECT_TRUE(ExecError("SELECT * FROM NOPE").IsNotFound());
  EXPECT_TRUE(ExecError("INSERT INTO NOPE VALUES (1)").IsNotFound());
}

TEST_F(ExecutorTest, LegacyConstructsRejectedWithoutTranspilation) {
  SeedCustomers();
  EXPECT_EQ(ExecError("SELECT ID ** 2 FROM CUSTOMERS").code(),
            common::StatusCode::kNotImplemented);
  EXPECT_EQ(ExecError("UPDATE CUSTOMERS SET NAME = 'x' WHERE ID = 1 "
                      "ELSE INSERT VALUES (1, 'x', NULL)")
                .code(),
            common::StatusCode::kNotImplemented);
}

TEST_F(ExecutorTest, UpdateSetOrientedAbortOnBadAssignment) {
  SeedCustomers();
  // TO_DATE fails on row ID=2's name? Construct: cast NAME to DATE fails for
  // all; ensure no partial updates.
  auto s = ExecError("UPDATE CUSTOMERS SET JOINED = TO_DATE(NAME, 'YYYY-MM-DD')");
  EXPECT_TRUE(s.IsConversionError());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS WHERE JOINED IS NULL").rows[0][0].int_value(),
            0);  // original dates untouched
}

// --- Evaluation order: what the statement compiler must keep --------------

TEST_F(ExecutorTest, FalseAndStillEvaluatesItsRightSide) {
  SeedCustomers();
  // AND evaluates both sides: a false left does not hide the right's error.
  EXPECT_TRUE(ExecError("SELECT ID FROM CUSTOMERS WHERE 1 = 0 AND "
                        "TO_DATE(NAME, 'YYYY-MM-DD') IS NULL")
                  .IsConversionError());
  EXPECT_TRUE(ExecError("DELETE FROM CUSTOMERS WHERE ID = 0 AND CAST(NAME AS INTEGER) = 1")
                  .IsConversionError());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS").rows[0][0].int_value(), 3);
}

TEST_F(ExecutorTest, CaseEvaluatesOnlyTheBranchItTakes) {
  SeedCustomers();
  auto result = Exec(
      "SELECT CASE WHEN ID > 0 THEN 'ok' ELSE TO_DATE(NAME, 'YYYY-MM-DD') END, "
      "CASE ID WHEN 2 THEN ID / 0 ELSE ID END FROM CUSTOMERS WHERE ID <> 2 ORDER BY 2");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].string_value(), "ok");
  EXPECT_EQ(result.rows[1][1].int_value(), 3);
  // The branch taken does run.
  EXPECT_TRUE(ExecError("SELECT CASE WHEN ID = 2 THEN ID / 0 END FROM CUSTOMERS")
                  .IsConversionError());
}

TEST_F(ExecutorTest, ArgumentErrorSurfacesBeforeUnknownFunction) {
  // No row evaluates the call, so neither error is raised.
  EXPECT_TRUE(Exec("SELECT FROBNICATE(TO_DATE(NAME, 'YYYY-MM-DD')) FROM CUSTOMERS").rows.empty());
  SeedCustomers();
  EXPECT_TRUE(ExecError("SELECT FROBNICATE(TO_DATE(NAME, 'YYYY-MM-DD')) FROM CUSTOMERS")
                  .IsConversionError());
  auto unknown = ExecError("SELECT FROBNICATE(NAME) FROM CUSTOMERS");
  EXPECT_EQ(unknown.code(), common::StatusCode::kNotImplemented);
  EXPECT_EQ(unknown.message(), "unknown function: FROBNICATE");
}

TEST_F(ExecutorTest, MissingColumnOverEmptyTableIsNotAnError) {
  EXPECT_TRUE(Exec("SELECT NOPE FROM CUSTOMERS").rows.empty());
  EXPECT_TRUE(Exec("SELECT ID FROM CUSTOMERS WHERE C.NOPE = 1").rows.empty());
  EXPECT_EQ(Exec("UPDATE CUSTOMERS SET NAME = NOPE WHERE NOPE = 1").rows_updated, 0u);
  EXPECT_EQ(Exec("DELETE FROM CUSTOMERS WHERE NOPE = 1").rows_deleted, 0u);
  EXPECT_EQ(Exec("INSERT INTO CUSTOMERS (NOPE) SELECT ID FROM CUSTOMERS").rows_inserted, 0u);
  SeedCustomers();
  auto missing = ExecError("SELECT NOPE FROM CUSTOMERS");
  EXPECT_TRUE(missing.IsNotFound());
  EXPECT_EQ(missing.message(), "column not found: NOPE");
  EXPECT_EQ(ExecError("SELECT ID FROM CUSTOMERS WHERE C.NOPE = 1").message(),
            "column not found: C.NOPE");
  EXPECT_TRUE(ExecError("INSERT INTO CUSTOMERS (NOPE) SELECT ID FROM CUSTOMERS").IsNotFound());
}

TEST_F(ExecutorTest, UnqualifiedColumnInBothMergeSidesIsAmbiguous) {
  SeedCustomers();
  Schema stg;
  stg.AddField(Field("ID", TypeDesc::Int64()));
  stg.AddField(Field("NAME", TypeDesc::Varchar(20)));
  catalog_.CreateTable("STG", stg).ok();
  Exec("INSERT INTO STG VALUES (2, 'two'), (9, 'nine')");
  // WHEN MATCHED sees both sides, so NAME is ambiguous there ...
  auto ambiguous = ExecError(
      "MERGE INTO CUSTOMERS T USING STG S ON T.ID = S.ID "
      "WHEN MATCHED THEN UPDATE SET NAME = NAME");
  EXPECT_TRUE(ambiguous.IsInvalid());
  EXPECT_EQ(ambiguous.message(), "ambiguous column reference: NAME");
  // ... while WHEN NOT MATCHED sees the source row alone.
  auto inserted = Exec(
      "MERGE INTO CUSTOMERS T USING STG S ON T.ID = S.ID "
      "WHEN MATCHED THEN UPDATE SET NAME = S.NAME "
      "WHEN NOT MATCHED THEN INSERT (ID, NAME) VALUES (ID, NAME)");
  EXPECT_EQ(inserted.rows_updated, 1u);
  EXPECT_EQ(inserted.rows_inserted, 1u);
}

TEST_F(ExecutorTest, AggregateContextEvaluatesAroundTheAggregates) {
  SeedCustomers();
  // A function or operator over aggregates applies to their values; a
  // subexpression without one reads the group's first row.
  auto values = Exec(
      "SELECT COALESCE(MAX(ID), 5), -SUM(ID), CAST(COUNT(*) AS VARCHAR(5)), UPPER(NAME) "
      "FROM CUSTOMERS WHERE ID >= 2");
  ASSERT_EQ(values.rows.size(), 1u);
  EXPECT_EQ(values.rows[0][0].int_value(), 3);
  EXPECT_EQ(values.rows[0][1].int_value(), -5);
  EXPECT_EQ(values.rows[0][2].string_value(), "2");
  EXPECT_EQ(values.rows[0][3].string_value(), "BOB");
  // Over no row, MAX is NULL, and so is every operand without an aggregate,
  // a literal included: it is read at the empty group's first row.
  auto empty = Exec(
      "SELECT COALESCE(MAX(ID), 5), COALESCE(NAME, 'none'), COUNT(*) + 1 FROM CUSTOMERS "
      "WHERE 1 = 0");
  ASSERT_EQ(empty.rows.size(), 1u);
  EXPECT_TRUE(empty.rows[0][0].is_null());
  EXPECT_TRUE(empty.rows[0][1].is_null());
  EXPECT_TRUE(empty.rows[0][2].is_null());
  // Errors: the forms an aggregate cannot sit in, legacy constructs after
  // their operands, and aggregate argument checks.
  EXPECT_EQ(ExecError("SELECT CASE WHEN COUNT(*) > 0 THEN 1 END FROM CUSTOMERS").message(),
            "aggregate inside this expression form");
  EXPECT_EQ(ExecError("SELECT ZEROIFNULL(COUNT(*)) FROM CUSTOMERS").code(),
            common::StatusCode::kNotImplemented);
  EXPECT_EQ(ExecError("SELECT SUM(ID) ** 2 FROM CUSTOMERS").code(),
            common::StatusCode::kNotImplemented);
  EXPECT_TRUE(ExecError("SELECT ZEROIFNULL(SUM(TO_DATE(NAME, 'YYYY-MM-DD'))) FROM CUSTOMERS")
                  .IsConversionError());
  EXPECT_EQ(ExecError("SELECT COUNT(ID, NAME) FROM CUSTOMERS").message(),
            "COUNT takes one argument");
  EXPECT_EQ(ExecError("SELECT SUM(COUNT(ID)) FROM CUSTOMERS").message(),
            "aggregate function COUNT is not allowed in this context");
  EXPECT_TRUE(ExecError("SELECT SUM(NAME) FROM CUSTOMERS").IsTypeError());
  // With GROUP BY and no row there is no group, so no error either.
  EXPECT_TRUE(
      Exec("SELECT CASE WHEN COUNT(*) > 0 THEN 1 END FROM CUSTOMERS WHERE 1 = 0 GROUP BY NAME")
          .rows.empty());
}

// --- Integer overflow in functions and aggregates ---------------------------

TEST_F(ExecutorTest, SumOverflowIsConversionError) {
  Exec("CREATE TABLE BIG (X BIGINT, Y FLOAT)");
  Exec("INSERT INTO BIG VALUES (9223372036854775807, 1), (9223372036854775807, 1)");
  auto s = ExecError("SELECT SUM(X) FROM BIG");
  EXPECT_TRUE(s.IsConversionError());
  EXPECT_EQ(s.message(), "integer overflow");
  // AVG and a mixed-kind SUM work in floating point and do not overflow.
  EXPECT_DOUBLE_EQ(Exec("SELECT AVG(X) FROM BIG").rows[0][0].float_value(),
                   9223372036854775807.0);
  EXPECT_EQ(Exec("SELECT SUM(X - 1) FROM BIG WHERE Y = 2").rows[0][0], Value::Null());
}

TEST_F(ExecutorTest, AddMonthsAndSubstrExtremesInStatements) {
  SeedCustomers();
  auto s = ExecError("SELECT ADD_MONTHS(JOINED, 9223372036854775807) FROM CUSTOMERS");
  EXPECT_TRUE(s.IsConversionError());
  EXPECT_EQ(s.message(), "integer overflow");
  auto result = Exec("SELECT SUBSTR(NAME, -9223372036854775807 - 1) FROM CUSTOMERS");
  ASSERT_EQ(result.rows.size(), 3u);
  for (const auto& row : result.rows) EXPECT_EQ(row[0].string_value(), "");
}

// --- Rows scanned -------------------------------------------------------------

TEST_F(ExecutorTest, RowsScannedCountsEveryScanLoop) {
  SeedCustomers();
  EXPECT_EQ(Exec("SELECT ID FROM CUSTOMERS WHERE ID = 2").rows_scanned, 3u);
  EXPECT_EQ(Exec("SELECT 1").rows_scanned, 0u);
  // A two-table join visits 3 outer rows and 3 inner rows per outer row.
  EXPECT_EQ(Exec("SELECT A.ID FROM CUSTOMERS A JOIN CUSTOMERS B ON A.ID = B.ID").rows_scanned,
            12u);
  EXPECT_EQ(Exec("INSERT INTO CUSTOMERS SELECT ID + 10, NAME, JOINED FROM CUSTOMERS")
                .rows_scanned,
            3u);
  EXPECT_EQ(Exec("UPDATE CUSTOMERS SET NAME = 'x' WHERE ID > 10").rows_scanned, 6u);
  // A failed statement reports the rows it visited up to its first error.
  EXPECT_TRUE(
      ExecError("SELECT TO_DATE(NAME, 'YYYY-MM-DD') FROM CUSTOMERS").IsConversionError());
  EXPECT_EQ(executor_.rows_scanned(), 1u);
  // Join DML: the driving loop plus the matcher's index build.
  Schema stg;
  stg.AddField(Field("ID", TypeDesc::Int64()));
  catalog_.CreateTable("STG", stg).ok();
  Exec("INSERT INTO STG VALUES (1), (2)");
  auto merged = Exec("DELETE FROM CUSTOMERS T USING STG S WHERE T.ID = S.ID");
  EXPECT_EQ(merged.join_path, JoinPath::kHash);
  EXPECT_EQ(merged.rows_scanned, 6u + 2u);
}

TEST_F(ExecutorTest, WherePredicateMustBeBoolean) {
  SeedCustomers();
  common::Status s = ExecError("SELECT * FROM CUSTOMERS WHERE ID + 1");
  EXPECT_TRUE(s.IsTypeError()) << s.ToString();
  EXPECT_EQ(s.message(), "WHERE predicate is not boolean");
}

// --- TRY_ forms: a ConversionError reads as NULL, any other error stays ------

TEST_F(ExecutorTest, TryToDateReadsAConversionErrorAsNull) {
  Exec("CREATE TABLE SRC (D VARCHAR(20))");
  Exec("INSERT INTO SRC VALUES ('2020-01-31'), ('not a date'), (NULL)");
  auto result = Exec("SELECT TRY_TO_DATE(D, 'YYYY-MM-DD') FROM SRC");
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_TRUE(result.rows[0][0].is_date());
  EXPECT_EQ(result.rows[0][0].ToString(), Exec("SELECT DATE '2020-01-31'").rows[0][0].ToString());
  EXPECT_TRUE(result.rows[1][0].is_null());
  EXPECT_TRUE(result.rows[2][0].is_null());
  // A format that is not a literal takes the per-row path with the same rule.
  Exec("CREATE TABLE FMT (D VARCHAR(20), F VARCHAR(20))");
  Exec("INSERT INTO FMT VALUES ('2020-01-31', 'YYYY-MM-DD'), ('31/01/2020', 'YYYY-MM-DD')");
  result = Exec("SELECT TRY_TO_DATE(D, F) FROM FMT");
  EXPECT_TRUE(result.rows[0][0].is_date());
  EXPECT_TRUE(result.rows[1][0].is_null());
  // The plain form still aborts the statement.
  EXPECT_TRUE(ExecError("SELECT TO_DATE(D, 'YYYY-MM-DD') FROM SRC").IsConversionError());
  // Not a conversion failure: a non-string format is a TypeError either way.
  EXPECT_TRUE(ExecError("SELECT TRY_TO_DATE(D, 5) FROM SRC").IsTypeError());
  EXPECT_TRUE(ExecError("SELECT TRY_TO_DATE(D) FROM SRC").IsInvalid());
}

TEST_F(ExecutorTest, TryToTimestampReadsAConversionErrorAsNull) {
  Exec("CREATE TABLE SRC (T VARCHAR(40))");
  Exec("INSERT INTO SRC VALUES ('2020-01-31 10:20:30'), ('noon'), (NULL)");
  auto result = Exec("SELECT TRY_TO_TIMESTAMP(T, 'YYYY-MM-DD HH:MI:SS') FROM SRC");
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_TRUE(result.rows[0][0].is_timestamp());
  EXPECT_TRUE(result.rows[1][0].is_null());
  EXPECT_TRUE(result.rows[2][0].is_null());
  EXPECT_TRUE(ExecError("SELECT TO_TIMESTAMP(T) FROM SRC").IsConversionError());
  EXPECT_TRUE(ExecError("SELECT TRY_TO_TIMESTAMP(T, 'a', 'b') FROM SRC").IsInvalid());
}

TEST_F(ExecutorTest, TryCastReadsAConversionErrorAsNull) {
  Exec("CREATE TABLE SRC (N VARCHAR(20))");
  Exec("INSERT INTO SRC VALUES ('42'), ('4x2'), ('99999999999'), (NULL)");
  auto result = Exec("SELECT TRY_CAST(N AS INTEGER) FROM SRC");
  ASSERT_EQ(result.rows.size(), 4u);
  EXPECT_EQ(result.rows[0][0].int_value(), 42);
  EXPECT_TRUE(result.rows[1][0].is_null());  // not a number
  EXPECT_TRUE(result.rows[2][0].is_null());  // out of INTEGER range
  EXPECT_TRUE(result.rows[3][0].is_null());
  // A string too long for the target is a ConversionError too.
  result = Exec("SELECT TRY_CAST(N AS VARCHAR(2)) FROM SRC");
  EXPECT_EQ(result.rows[0][0].string_value(), "42");
  EXPECT_TRUE(result.rows[1][0].is_null());
  EXPECT_TRUE(ExecError("SELECT CAST(N AS INTEGER) FROM SRC").IsConversionError());
  // A cast the types do not allow is a TypeError, and TRY_CAST keeps it.
  SeedCustomers();
  EXPECT_TRUE(ExecError("SELECT TRY_CAST(JOINED AS FLOAT) FROM CUSTOMERS").IsTypeError());
  // The suspect query the §7 planner sends: rows whose conversion would fail.
  result = Exec("SELECT N FROM SRC WHERE N IS NOT NULL AND TRY_CAST(N AS INTEGER) IS NULL");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].string_value(), "4x2");
}

// --- Insert staging: which check fails first ---------------------------------

TEST_F(ExecutorTest, InsertSelectErrorInALaterRowWinsOverACastErrorInAnEarlierOne) {
  Exec("CREATE TABLE SRC (ID VARCHAR(10), D VARCHAR(20))");
  Exec("INSERT INTO SRC VALUES (NULL, '2020-01-01'), ('2', 'not a date')");
  // Row 1 breaks NOT NULL on ID, row 2 fails TO_DATE: the SELECT runs to the
  // end before any row is staged, so TO_DATE's error is the statement's.
  auto s = ExecError("INSERT INTO CUSTOMERS SELECT ID, 'n', TO_DATE(D, 'YYYY-MM-DD') FROM SRC");
  EXPECT_EQ(s.code(), common::StatusCode::kConversionError);
  EXPECT_EQ(s.message(), "DATE conversion failed for 'not a date' with format 'YYYY-MM-DD'");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS").rows[0][0].int_value(), 0);
}

TEST_F(ExecutorTest, InsertSelectListOmittingANotNullColumn) {
  Exec("CREATE TABLE SRC (NAME VARCHAR(10), D DATE)");
  Exec("INSERT INTO SRC VALUES ('a', DATE '2020-01-01')");
  auto s = ExecError("INSERT INTO CUSTOMERS (JOINED, NAME) SELECT D, NAME FROM SRC");
  EXPECT_EQ(s.code(), common::StatusCode::kConversionError);
  EXPECT_EQ(s.message(), "NULL value in NOT NULL column ID of CUSTOMERS");
}

TEST_F(ExecutorTest, UnknownInsertListColumnFailsOnlyOnTheFirstStagedRow) {
  Exec("CREATE TABLE SRC (ID BIGINT, NAME VARCHAR(10))");
  EXPECT_EQ(Exec("INSERT INTO CUSTOMERS (ID, NOPE) SELECT ID, NAME FROM SRC").rows_inserted, 0u);
  Exec("INSERT INTO SRC VALUES (1, 'a')");
  auto count = ExecError("INSERT INTO CUSTOMERS (ID, NOPE) SELECT ID FROM SRC");
  EXPECT_EQ(count.code(), common::StatusCode::kInvalid);
  EXPECT_EQ(count.message(), "value count does not match column list");
  EXPECT_TRUE(ExecError("INSERT INTO CUSTOMERS (ID, NOPE) SELECT ID, NAME FROM SRC").IsNotFound());
}

TEST_F(ExecutorTest, UniquenessComparesKeysAfterTheCast) {
  SeedCustomers();
  Exec("CREATE TABLE SRC (ID VARCHAR(10))");
  Exec("INSERT INTO SRC VALUES ('2')");
  auto s = ExecError("INSERT INTO CUSTOMERS SELECT ID, 'x', NULL FROM SRC", /*enforce=*/true);
  EXPECT_TRUE(s.IsConstraintViolation()) << s.ToString();
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS").rows[0][0].int_value(), 3);
}

TEST_F(ExecutorTest, MergeInsertFailureLeavesMatchedUpdatesUnapplied) {
  SeedCustomers();
  Exec("CREATE TABLE SRC (ID BIGINT, NAME VARCHAR(10))");
  Exec("INSERT INTO SRC VALUES (1, 'new'), (NULL, 'x')");
  auto s = ExecError(
      "MERGE INTO CUSTOMERS T USING SRC S ON T.ID = S.ID "
      "WHEN MATCHED THEN UPDATE SET NAME = S.NAME "
      "WHEN NOT MATCHED THEN INSERT VALUES (S.ID, S.NAME, NULL)");
  EXPECT_EQ(s.code(), common::StatusCode::kConversionError);
  EXPECT_EQ(s.message(), "NULL value in NOT NULL column ID of CUSTOMERS");
  EXPECT_EQ(Exec("SELECT NAME FROM CUSTOMERS WHERE ID = 1").rows[0][0].string_value(), "Ada");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS").rows[0][0].int_value(), 3);
}

TEST_F(ExecutorTest, UpdateSwappingTwoKeysIsNotADuplicate) {
  SeedCustomers();
  auto result = Exec("UPDATE CUSTOMERS SET ID = CASE WHEN ID = 1 THEN 2 ELSE 1 END "
                     "WHERE ID IN (1, 2)",
                     /*enforce=*/true);
  EXPECT_EQ(result.rows_updated, 2u);
  EXPECT_EQ(Exec("SELECT NAME FROM CUSTOMERS WHERE ID = 2").rows[0][0].string_value(), "Ada");
  EXPECT_EQ(Exec("SELECT NAME FROM CUSTOMERS WHERE ID = 1").rows[0][0].string_value(), "Bob");
}

TEST_F(ExecutorTest, UpdateOfANonKeyColumnOnADuplicatedKeyFailsOnlyUnderEnforcement) {
  SeedCustomers();
  Exec("INSERT INTO CUSTOMERS VALUES (1, 'Dup', NULL)");  // key 1 is now stored twice
  const std::string update = "UPDATE CUSTOMERS SET NAME = 'x' WHERE ID = 1 AND NAME = 'Ada'";
  auto s = ExecError(update, /*enforce=*/true);
  EXPECT_EQ(s.code(), common::StatusCode::kConstraintViolation);
  EXPECT_EQ(s.message(), "duplicate unique primary key in table CUSTOMERS");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS WHERE NAME = 'x'").rows[0][0].int_value(), 0);
  EXPECT_EQ(Exec(update).rows_updated, 1u);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS WHERE NAME = 'x'").rows[0][0].int_value(), 1);
}

// --- A column named twice -----------------------------------------------------

TEST_F(ExecutorTest, ColumnNamedTwiceIsRejected) {
  auto insert = ExecError("INSERT INTO CUSTOMERS (ID, ID) VALUES (1, 2)");
  EXPECT_EQ(insert.code(), common::StatusCode::kInvalid);
  EXPECT_EQ(insert.message(), "column ID is listed more than once");
  EXPECT_EQ(ExecError("INSERT INTO CUSTOMERS (id, NAME, Id) VALUES (1, 'a', 2)").message(),
            "column Id is listed more than once");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS").rows[0][0].int_value(), 0);

  SeedCustomers();
  auto update = ExecError("UPDATE CUSTOMERS SET NAME = 'a', NAME = 'b'");
  EXPECT_EQ(update.code(), common::StatusCode::kInvalid);
  EXPECT_EQ(update.message(), "column NAME is listed more than once");
  EXPECT_EQ(Exec("SELECT NAME FROM CUSTOMERS WHERE ID = 1").rows[0][0].string_value(), "Ada");

  Exec("CREATE TABLE SRC (ID BIGINT, NAME VARCHAR(10))");
  Exec("INSERT INTO SRC VALUES (1, 'x'), (7, 'y')");
  auto merge_set = ExecError(
      "MERGE INTO CUSTOMERS T USING SRC S ON T.ID = S.ID "
      "WHEN MATCHED THEN UPDATE SET NAME = S.NAME, NAME = 'z'");
  EXPECT_EQ(merge_set.message(), "column NAME is listed more than once");
  auto merge_insert = ExecError(
      "MERGE INTO CUSTOMERS T USING SRC S ON T.ID = S.ID "
      "WHEN MATCHED THEN UPDATE SET NAME = S.NAME "
      "WHEN NOT MATCHED THEN INSERT (ID, NAME, ID) VALUES (S.ID, S.NAME, S.ID)");
  EXPECT_EQ(merge_insert.code(), common::StatusCode::kInvalid);
  EXPECT_EQ(merge_insert.message(), "column ID is listed more than once");
  EXPECT_EQ(Exec("SELECT NAME FROM CUSTOMERS WHERE ID = 1").rows[0][0].string_value(), "Ada");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM CUSTOMERS").rows[0][0].int_value(), 3);
}

// A repeated insert-list column fails where an unknown one does: on the
// first staged row, after its value count. A repeated SET column fails at
// statement start, even when no row is updated.
TEST_F(ExecutorTest, ColumnNamedTwiceFailsWhereAnUnknownColumnWould) {
  Exec("CREATE TABLE SRC (ID BIGINT, NAME VARCHAR(10))");
  EXPECT_EQ(Exec("INSERT INTO CUSTOMERS (ID, ID) SELECT ID, ID FROM SRC").rows_inserted, 0u);
  EXPECT_EQ(Exec("MERGE INTO CUSTOMERS T USING SRC S ON T.ID = S.ID "
                 "WHEN NOT MATCHED THEN INSERT (ID, ID) VALUES (S.ID, S.ID)")
                .rows_inserted,
            0u);
  EXPECT_EQ(ExecError("INSERT INTO CUSTOMERS (ID, ID) VALUES (1)").message(),
            "value count does not match column list");
  EXPECT_TRUE(ExecError("INSERT INTO CUSTOMERS (NOPE, ID, ID) VALUES (1, 2, 3)").IsNotFound());
  EXPECT_EQ(ExecError("UPDATE CUSTOMERS SET NAME = 'a', NAME = 'b'").code(),
            common::StatusCode::kInvalid);
  EXPECT_EQ(ExecError("MERGE INTO CUSTOMERS T USING SRC S ON T.ID = S.ID "
                      "WHEN MATCHED THEN UPDATE SET NAME = 'a', NAME = 'b'")
                .code(),
            common::StatusCode::kInvalid);
}

}  // namespace
}  // namespace hyperq::cdw

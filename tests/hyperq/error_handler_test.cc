#include "hyperq/error_handler.h"

#include <cstring>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/retry.h"
#include "hyperq/data_converter.h"
#include "legacy/errors.h"
#include "sql/parser.h"

namespace hyperq::core {
namespace {

using types::Field;
using types::Schema;
using types::TypeDesc;
using types::Value;

/// Fixture reproducing Example 2.1 / 7.1: PROD.CUSTOMER with a unique key,
/// staging table carrying the raw file fields plus HQ_ROWNUM.
class AdaptiveErrorTest : public ::testing::Test {
 protected:
  AdaptiveErrorTest() : cdw_(&store_) {
    layout_.AddField(Field("CUST_ID", TypeDesc::Varchar(5)));
    layout_.AddField(Field("CUST_NAME", TypeDesc::Varchar(50)));
    layout_.AddField(Field("JOIN_DATE", TypeDesc::Varchar(10)));

    Schema target;
    target.AddField(Field("CUST_ID", TypeDesc::Varchar(5), false));
    target.AddField(Field("CUST_NAME", TypeDesc::Varchar(50)));
    target.AddField(Field("JOIN_DATE", TypeDesc::Date()));
    cdw_.catalog()->CreateTable("PROD.CUSTOMER", target, {"CUST_ID"}, true).ok();

    staging_schema_ = MakeStagingSchema(layout_).ValueOrDie();
    cdw_.catalog()->CreateTable("STG", staging_schema_).ok();
    cdw_.catalog()->CreateTable("PROD.CUSTOMER_ET", MakeEtErrorSchema()).ok();
    cdw_.catalog()->CreateTable("PROD.CUSTOMER_UV", MakeUvErrorSchema(layout_)).ok();

    dml_ = sql::ParseStatement(
               "insert into PROD.CUSTOMER values (trim(:CUST_ID), trim(:CUST_NAME), "
               "cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))")
               .ValueOrDie();
  }

  /// Loads the Figure 5(a) data file into staging.
  void StageFigure5Data() {
    StageRows({{"123", "Smith", "2012-01-01"},
               {"456", "Brown", "xxxx"},
               {"789", "Brown", "yyyyy"},
               {"123", "Jones", "2012-12-01"},
               {"157", "Jones", "2012-12-01"}});
  }

  void StageRows(const std::vector<std::vector<std::string>>& rows) {
    auto table = cdw_.catalog()->GetTable("STG").ValueOrDie();
    cdw::TableWrite write;
    write.appended.resize(table->num_columns());
    int64_t rownum = 1;
    for (const auto& r : rows) {
      for (size_t c = 0; c < r.size(); ++c) {
        write.appended[c].push_back(r[c].empty() ? Value::Null() : Value::String(r[c]));
      }
      write.appended.back().push_back(Value::Int(rownum++));
    }
    ASSERT_TRUE(table->Commit(std::move(write)).ok());
    total_rows_ = rows.size();
  }

  DmlApplyResult Apply(AdaptiveOptions options = {}) {
    AdaptiveDmlApplier applier(&cdw_, dml_.get(), layout_, "STG", "PROD.CUSTOMER",
                               "PROD.CUSTOMER_ET", "PROD.CUSTOMER_UV", options);
    auto result = applier.Apply(1, total_rows_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : DmlApplyResult{};
  }

  /// Recreates PROD.CUSTOMER with `ddl` and loads one staged row through
  /// `dml`; returns the ERRORFIELD of the ET row it produces.
  std::string ErrorFieldOf(const std::string& ddl, const std::string& dml,
                           const std::vector<std::string>& row) {
    EXPECT_TRUE(cdw_.ExecuteSql("DROP TABLE PROD.CUSTOMER").ok());
    EXPECT_TRUE(cdw_.ExecuteSql(ddl).ok());
    dml_ = sql::ParseStatement(dml).ValueOrDie();
    StageRows({row});
    auto result = Apply();
    EXPECT_EQ(result.et_errors, 1u);
    auto et = TableRows("PROD.CUSTOMER_ET");
    if (et.size() != 1u) return std::to_string(et.size()) + " ET rows";
    return et[0][1].is_null() ? "NULL" : et[0][1].string_value();
  }

  std::vector<types::Row> TableRows(const std::string& name) {
    auto table = cdw_.catalog()->GetTable(name).ValueOrDie();
    std::vector<types::Row> rows;
    for (size_t r = 0; r < table->num_rows(); ++r) rows.push_back(table->GetRow(r));
    return rows;
  }

  cloud::ObjectStore store_;
  cdw::CdwServer cdw_;
  Schema layout_;
  Schema staging_schema_;
  sql::StatementPtr dml_;
  uint64_t total_rows_ = 0;
};

TEST_F(AdaptiveErrorTest, CleanDataAppliesInOneStatement) {
  StageRows({{"1", "A", "2012-01-01"}, {"2", "B", "2012-01-02"}});
  auto result = Apply();
  EXPECT_EQ(result.rows_inserted, 2u);
  EXPECT_EQ(result.et_errors, 0u);
  EXPECT_EQ(result.uv_errors, 0u);
  EXPECT_EQ(result.statements_issued, 1u);  // no splitting needed
}

TEST_F(AdaptiveErrorTest, Figure5FullErrorIsolation) {
  // Default limits: every faulty tuple is isolated individually.
  StageFigure5Data();
  auto result = Apply();

  // Rows 1 and 5 load; row 4 is a duplicate key; rows 2-3 have bad dates.
  EXPECT_EQ(result.rows_inserted, 2u);
  EXPECT_EQ(result.et_errors, 2u);
  EXPECT_EQ(result.uv_errors, 1u);
  EXPECT_EQ(result.range_errors, 0u);

  auto loaded = TableRows("PROD.CUSTOMER");
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0][0].string_value(), "123");
  EXPECT_EQ(loaded[0][1].string_value(), "Smith");
  EXPECT_EQ(loaded[1][0].string_value(), "157");

  // ET table: Figure 5(b) — codes for the two date failures.
  auto et = TableRows("PROD.CUSTOMER_ET");
  ASSERT_EQ(et.size(), 2u);
  EXPECT_EQ(et[0][0].int_value(), legacy::kErrDateConversionDml);
  EXPECT_EQ(et[0][1].string_value(), "JOIN_DATE");
  EXPECT_NE(et[0][2].string_value().find("row number: 2"), std::string::npos);
  EXPECT_NE(et[1][2].string_value().find("row number: 3"), std::string::npos);

  // UV table: Figure 5(c) — the duplicate tuple with SEQNO and code 2794.
  auto uv = TableRows("PROD.CUSTOMER_UV");
  ASSERT_EQ(uv.size(), 1u);
  EXPECT_EQ(uv[0][0].string_value(), "123");
  EXPECT_EQ(uv[0][1].string_value(), "Jones");
  EXPECT_EQ(uv[0][3].int_value(), 4);  // SEQNO
  EXPECT_EQ(uv[0][4].int_value(), legacy::kErrUniquenessViolation);
}

TEST_F(AdaptiveErrorTest, Figure6MaxErrorsLimitsIsolation) {
  StageFigure5Data();
  AdaptiveOptions options;
  options.max_errors = 2;
  auto result = Apply(options);

  // Figure 6: rows 2 and 3 individually; rows 4-5 as one range error.
  EXPECT_EQ(result.et_errors, 3u);
  EXPECT_EQ(result.range_errors, 1u);
  EXPECT_EQ(result.uv_errors, 0u);
  EXPECT_EQ(result.rows_inserted, 1u);  // only row 1

  auto et = TableRows("PROD.CUSTOMER_ET");
  ASSERT_EQ(et.size(), 3u);
  EXPECT_EQ(et[2][0].int_value(), legacy::kErrMaxErrorsReached);
  EXPECT_TRUE(et[2][1].is_null());
  EXPECT_NE(et[2][2].string_value().find("row numbers: (4, 5)"), std::string::npos);
}

TEST_F(AdaptiveErrorTest, MaxRetriesLimitsSplitDepth) {
  // 8 rows, all bad dates. With max_retries=1 the handler may split once:
  // [1..8] -> [1..4][5..8], both still failing and recorded as ranges.
  StageRows({{"1", "A", "bad"},
             {"2", "B", "bad"},
             {"3", "C", "bad"},
             {"4", "D", "bad"},
             {"5", "E", "bad"},
             {"6", "F", "bad"},
             {"7", "G", "bad"},
             {"8", "H", "bad"}});
  AdaptiveOptions options;
  options.max_retries = 1;
  auto result = Apply(options);
  EXPECT_EQ(result.rows_inserted, 0u);
  EXPECT_EQ(result.range_errors, 2u);
  EXPECT_EQ(result.et_errors, 2u);
}

TEST_F(AdaptiveErrorTest, ErrorsScatteredAcrossChunk) {
  StageRows({{"1", "A", "2012-01-01"},
             {"2", "B", "bad"},
             {"3", "C", "2012-01-03"},
             {"4", "D", "bad"},
             {"5", "E", "2012-01-05"},
             {"6", "F", "2012-01-06"}});
  auto result = Apply();
  EXPECT_EQ(result.rows_inserted, 4u);
  EXPECT_EQ(result.et_errors, 2u);
  // Splitting issues more statements than a clean load but far fewer than
  // one per row... (binary isolation).
  EXPECT_GT(result.statements_issued, 2u);
}

TEST_F(AdaptiveErrorTest, DuplicateWithinLoadDetectedBySplit) {
  StageRows({{"9", "A", "2012-01-01"}, {"9", "B", "2012-01-02"}});
  auto result = Apply();
  EXPECT_EQ(result.rows_inserted, 1u);
  EXPECT_EQ(result.uv_errors, 1u);
  auto uv = TableRows("PROD.CUSTOMER_UV");
  ASSERT_EQ(uv.size(), 1u);
  EXPECT_EQ(uv[0][3].int_value(), 2);  // the second occurrence is recorded
}

TEST_F(AdaptiveErrorTest, UniquenessDisabledLoadsDuplicates) {
  StageRows({{"9", "A", "2012-01-01"}, {"9", "B", "2012-01-02"}});
  AdaptiveOptions options;
  options.enforce_uniqueness = false;
  auto result = Apply(options);
  EXPECT_EQ(result.rows_inserted, 2u);
  EXPECT_EQ(result.uv_errors, 0u);
}

TEST_F(AdaptiveErrorTest, EmptyRangeIsNoop) {
  StageRows({});
  auto result = Apply();
  EXPECT_EQ(result.rows_inserted, 0u);
  EXPECT_EQ(result.statements_issued, 0u);
}

TEST_F(AdaptiveErrorTest, AllRowsBadStillTerminates) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 32; ++i) {
    rows.push_back({std::to_string(i), "X", "nope"});
  }
  StageRows(rows);
  auto result = Apply();
  EXPECT_EQ(result.rows_inserted, 0u);
  EXPECT_EQ(result.et_errors, 32u);
}

TEST_F(AdaptiveErrorTest, InjectedFaultOnTheFailingProbeKeepsErrorField) {
  // Every column is a CAST, so one probe answers for all three: the root
  // statement is cdw.exec call 1 and the probe is call 2. A transient fault
  // there used to read as "this column did not fail".
  dml_ = sql::ParseStatement(
             "insert into PROD.CUSTOMER values (cast(:CUST_ID as varchar(5)), "
             "cast(:CUST_NAME as varchar(50)), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))")
             .ValueOrDie();
  StageRows({{"456", "Brown", "xxxx"}});
  common::FaultInjector::Global().ResetForTesting();
  ASSERT_TRUE(common::FaultInjector::Global().Arm("cdw.exec=error,once=2").ok());
  AdaptiveOptions options;
  options.io_retry.sleep = false;
  auto result = Apply(options);
  EXPECT_EQ(common::FaultInjector::Global().injected_count("cdw.exec"), 1u);
  common::FaultInjector::Global().ResetForTesting();
  common::ResetBreakersForTesting();
  EXPECT_EQ(result.et_errors, 1u);
  auto et = TableRows("PROD.CUSTOMER_ET");
  ASSERT_EQ(et.size(), 1u);
  ASSERT_FALSE(et[0][1].is_null());
  EXPECT_EQ(et[0][1].string_value(), "JOIN_DATE");
}

TEST_F(AdaptiveErrorTest, ProbesSkipColumnsThatCannotFail) {
  // One probe answers for the NOT NULL CUST_ID and the JOIN_DATE conversion;
  // TRIM(CUST_NAME) cannot fail: root, one probe and the ET insert.
  StageRows({{"456", "Brown", "xxxx"}});
  const uint64_t before = cdw_.statements_executed();
  auto result = Apply();
  EXPECT_EQ(cdw_.statements_executed() - before, 3u);
  EXPECT_EQ(result.statements_issued, 2u);  // root + ET insert
  auto et = TableRows("PROD.CUSTOMER_ET");
  ASSERT_EQ(et.size(), 1u);
  EXPECT_EQ(et[0][1].string_value(), "JOIN_DATE");
}

TEST_F(AdaptiveErrorTest, PlannedIsolationAppliesCleanRunsInOneStatementEach) {
  // One bad date in every 10 rows: root, suspect query, then per error one
  // clean run and the failing singleton, the last run, and one ET insert.
  std::vector<std::vector<std::string>> rows;
  for (int i = 1; i <= 100; ++i) {
    rows.push_back({std::to_string(i), "N", i % 10 == 4 ? "bad" : "2012-01-01"});
  }
  StageRows(rows);
  auto result = Apply();
  EXPECT_EQ(result.suspects, 10u);
  EXPECT_EQ(result.plan_fallbacks, 0u);
  EXPECT_EQ(result.rows_inserted, 90u);
  EXPECT_EQ(result.et_errors, 10u);
  EXPECT_EQ(result.statements_issued, 2u + 11u + 10u + 1u);

  // Halving finds the same errors in more statements.
  auto planned_et = TableRows("PROD.CUSTOMER_ET");
  ASSERT_TRUE(cdw_.ExecuteSql("DELETE FROM PROD.CUSTOMER").ok());
  ASSERT_TRUE(cdw_.ExecuteSql("DELETE FROM PROD.CUSTOMER_ET").ok());
  AdaptiveOptions halving;
  halving.isolation = ErrorIsolation::kHalving;
  auto paper = Apply(halving);
  EXPECT_EQ(paper.rows_inserted, 90u);
  EXPECT_EQ(paper.suspects, 0u);
  EXPECT_GT(paper.statements_issued, result.statements_issued);
  auto halving_et = TableRows("PROD.CUSTOMER_ET");
  ASSERT_EQ(planned_et.size(), halving_et.size());
  for (size_t i = 0; i < planned_et.size(); ++i) {
    for (size_t c = 0; c < planned_et[i].size(); ++c) {
      EXPECT_TRUE(planned_et[i][c] == halving_et[i][c]) << i << "," << c;
    }
  }
}

TEST_F(AdaptiveErrorTest, FaultOnTheBatchRetriesTheWholeBatch) {
  // cdw.exec call 1 is the root, call 2 the suspect query and call 3 the
  // batch of every predicted statement. A fault fires before any statement
  // of the batch runs, so the retried batch loads each row once.
  std::vector<std::vector<std::string>> rows;
  for (int i = 1; i <= 100; ++i) {
    rows.push_back({std::to_string(i), "N", i % 10 == 4 ? "bad" : "2012-01-01"});
  }
  StageRows(rows);
  common::FaultInjector::Global().ResetForTesting();
  ASSERT_TRUE(common::FaultInjector::Global().Arm("cdw.exec=error,once=3").ok());
  AdaptiveOptions options;
  options.io_retry.sleep = false;
  auto result = Apply(options);
  EXPECT_EQ(common::FaultInjector::Global().injected_count("cdw.exec"), 1u);
  common::FaultInjector::Global().ResetForTesting();
  common::ResetBreakersForTesting();
  EXPECT_EQ(result.rows_inserted, 90u);
  EXPECT_EQ(result.et_errors, 10u);
  EXPECT_EQ(result.statements_issued, 2u + 11u + 10u + 1u);
  EXPECT_EQ(result.round_trips, 4u);
  EXPECT_EQ(TableRows("PROD.CUSTOMER").size(), 90u);
  EXPECT_EQ(TableRows("PROD.CUSTOMER_ET").size(), 10u);
}

TEST_F(AdaptiveErrorTest, PlannedIsolationRewindsToHalvingOnAFailedRun) {
  // Rows 2-3 are predicted; the duplicate key in row 4 is not, so the run
  // [4, 5] fails and halving takes over from that node.
  StageFigure5Data();
  auto result = Apply();
  EXPECT_EQ(result.suspects, 2u);
  EXPECT_EQ(result.plan_fallbacks, 1u);
  EXPECT_EQ(result.rows_inserted, 2u);
  EXPECT_EQ(result.et_errors, 2u);
  EXPECT_EQ(result.uv_errors, 1u);
  auto uv = TableRows("PROD.CUSTOMER_UV");
  ASSERT_EQ(uv.size(), 1u);
  EXPECT_EQ(uv[0][3].int_value(), 4);
}

TEST_F(AdaptiveErrorTest, PlannedIsolationFallsBackWhenNoRowIsSuspect) {
  // Only the duplicate fails; the suspect query finds nothing.
  StageRows({{"9", "A", "2012-01-01"}, {"9", "B", "2012-01-02"}});
  auto result = Apply();
  EXPECT_EQ(result.suspects, 0u);
  EXPECT_EQ(result.plan_fallbacks, 1u);
  EXPECT_EQ(result.uv_errors, 1u);
  // Halving's three statements, its UV insert, and the suspect query.
  EXPECT_EQ(result.statements_issued, 5u);
}

TEST_F(AdaptiveErrorTest, UpdateKeepsHalving) {
  StageRows({{"1", "A", "2012-01-01"}, {"2", "B", "bad"}});
  ASSERT_TRUE(cdw_.ExecuteSql("INSERT INTO PROD.CUSTOMER VALUES ('1', 'x', NULL), "
                              "('2', 'y', NULL)")
                  .ok());
  dml_ = sql::ParseStatement(
             "update PROD.CUSTOMER set JOIN_DATE = cast(:JOIN_DATE as DATE format "
             "'YYYY-MM-DD') where CUST_ID = :CUST_ID")
             .ValueOrDie();
  auto result = Apply();
  EXPECT_EQ(result.rows_updated, 1u);
  EXPECT_EQ(result.et_errors, 1u);
  EXPECT_EQ(result.suspects, 0u);
  EXPECT_EQ(result.plan_fallbacks, 0u);
  EXPECT_EQ(result.statements_issued, 3u + 1u);  // halving + the ET insert
}

TEST_F(AdaptiveErrorTest, EtRowsOfOneApplyGoOutInOneStatement) {
  // 32 suspects: root, suspect query, 32 failing singletons in one batch,
  // and one ET insert for all 32 rows, in row order. The suspect query
  // names JOIN_DATE for each row, so no probe is sent.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 32; ++i) rows.push_back({std::to_string(i), "X", "nope"});
  StageRows(rows);
  const uint64_t before = cdw_.statements_executed();
  auto result = Apply();
  EXPECT_EQ(result.et_errors, 32u);
  EXPECT_EQ(result.statements_issued, 2u + 32u + 1u);
  EXPECT_EQ(cdw_.statements_executed() - before, result.statements_issued);
  EXPECT_EQ(result.round_trips, 4u);
  auto et = TableRows("PROD.CUSTOMER_ET");
  ASSERT_EQ(et.size(), 32u);
  for (size_t i = 0; i < et.size(); ++i) {
    EXPECT_NE(et[i][2].string_value().find("row number: " + std::to_string(i + 1)),
              std::string::npos);
  }
}

TEST_F(AdaptiveErrorTest, SuspectQuerySettlesErrorFieldBeforeAnUnmodelledItem) {
  // CUST_NAME's item is not modelled. Row 2's NULL key fails CUST_ID, which
  // comes before it, so the suspect query's answer names the column. Row
  // 3's bad date fails JOIN_DATE, after it, so row 3 is probed as before:
  // the modelled items' probe and CUST_NAME's expression probe.
  dml_ = sql::ParseStatement(
             "insert into PROD.CUSTOMER values (trim(:CUST_ID), trim(:CUST_NAME) || '', "
             "cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))")
             .ValueOrDie();
  StageRows({{"1", "A", "2012-01-01"},
             {"", "B", "2012-01-02"},
             {"3", "C", "bad"},
             {"4", "D", "2012-01-04"}});
  const uint64_t before = cdw_.statements_executed();
  auto result = Apply();
  EXPECT_EQ(result.suspects, 2u);
  EXPECT_EQ(result.rows_inserted, 2u);
  EXPECT_EQ(cdw_.statements_executed() - before, result.statements_issued + 2u);
  // Root, suspect query, one batch, two probes and the ET insert.
  EXPECT_EQ(result.round_trips, 6u);
  auto et = TableRows("PROD.CUSTOMER_ET");
  ASSERT_EQ(et.size(), 2u);
  EXPECT_EQ(et[0][1].string_value(), "CUST_ID");
  EXPECT_EQ(et[1][1].string_value(), "JOIN_DATE");
}

TEST_F(AdaptiveErrorTest, CleanApplyWritesNoEtStatement) {
  StageRows({{"1", "A", "2012-01-01"}, {"2", "B", "2012-01-02"}});
  const uint64_t before = cdw_.statements_executed();
  auto result = Apply();
  EXPECT_EQ(result.statements_issued, 1u);
  EXPECT_EQ(cdw_.statements_executed() - before, 1u);
}

TEST_F(AdaptiveErrorTest, FailedSearchStillWritesTheRowsItRecorded) {
  // Row 1's bad date is recorded, then a fault that is not retried fails
  // the search on [2, 2]. Calls: root, [1, 1], its probe, [2, 2], ET insert.
  StageRows({{"1", "A", "bad"}, {"2", "B", "2012-01-02"}});
  AdaptiveOptions options;
  options.isolation = ErrorIsolation::kHalving;
  options.io_retry.max_attempts = 1;
  common::FaultInjector::Global().ResetForTesting();
  ASSERT_TRUE(common::FaultInjector::Global().Arm("cdw.exec=error,once=4").ok());
  AdaptiveDmlApplier applier(&cdw_, dml_.get(), layout_, "STG", "PROD.CUSTOMER",
                             "PROD.CUSTOMER_ET", "PROD.CUSTOMER_UV", options);
  auto result = applier.Apply(1, 2);
  common::FaultInjector::Global().ResetForTesting();
  common::ResetBreakersForTesting();
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  auto et = TableRows("PROD.CUSTOMER_ET");
  ASSERT_EQ(et.size(), 1u);
  EXPECT_NE(et[0][2].string_value().find("row number: 1"), std::string::npos);
}

TEST_F(AdaptiveErrorTest, ErrorFieldNamesTheColumnOfAFailedImplicitCast) {
  EXPECT_EQ(ErrorFieldOf("CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5) NOT NULL, "
                         "CUST_NAME VARCHAR(50), SCORE INTEGER)",
                         "insert into PROD.CUSTOMER values (trim(:CUST_ID), "
                         "trim(:CUST_NAME), trim(:JOIN_DATE))",
                         {"1", "Ann", "12x"}),
            "SCORE");
}

TEST_F(AdaptiveErrorTest, ErrorFieldNamesTheColumnOfAStringLengthOverflow) {
  EXPECT_EQ(ErrorFieldOf("CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5) NOT NULL, "
                         "CUST_NAME VARCHAR(3), JOIN_DATE DATE)",
                         "insert into PROD.CUSTOMER values (trim(:CUST_ID), "
                         "trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))",
                         {"1", "Annabel", "2012-01-01"}),
            "CUST_NAME");
}

TEST_F(AdaptiveErrorTest, ErrorFieldNamesTheColumnOfANotNullViolation) {
  EXPECT_EQ(ErrorFieldOf("CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5) NOT NULL, "
                         "CUST_NAME VARCHAR(50), JOIN_DATE DATE)",
                         "insert into PROD.CUSTOMER values (trim(:CUST_ID), "
                         "trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))",
                         {"", "Ann", "2012-01-01"}),
            "CUST_ID");
}

TEST(EtInsertSqlTest, RendersEveryRowInOrderInOneStatement) {
  EXPECT_EQ(EtInsertSql("T_ET", {{2666, "JOIN_DATE", "bad 'date'"}, {9057, "", "range"}}),
            "INSERT INTO T_ET VALUES (2666, 'JOIN_DATE', 'bad ''date'''), "
            "(9057, NULL, 'range')");
}

TEST(DmlApplyResultTest, AddSumsEveryField) {
  const DmlApplyResult batch{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  DmlApplyResult totals{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  totals.Add(batch);
  const DmlApplyResult want{11, 22, 33, 44, 55, 66, 77, 88, 99, 110};
  EXPECT_EQ(std::memcmp(&totals, &want, sizeof(want)), 0);
}

TEST(ErrorSchemaTest, EtShapeMatchesFigure6) {
  Schema et = MakeEtErrorSchema();
  ASSERT_EQ(et.num_fields(), 3u);
  EXPECT_EQ(et.field(0).name, "ERRORCODE");
  EXPECT_EQ(et.field(1).name, "ERRORFIELD");
  EXPECT_EQ(et.field(2).name, "ERRORMESSAGE");
}

TEST(ErrorSchemaTest, UvShapeMatchesFigure5c) {
  Schema layout;
  layout.AddField(Field("CUST_ID", TypeDesc::Varchar(5)));
  layout.AddField(Field("JOIN_DATE", TypeDesc::Varchar(10)));
  Schema uv = MakeUvErrorSchema(layout);
  ASSERT_EQ(uv.num_fields(), 4u);
  EXPECT_EQ(uv.field(0).name, "CUST_ID");
  EXPECT_EQ(uv.field(2).name, "SEQNO");
  EXPECT_EQ(uv.field(3).name, "ERRCODE");
}

TEST(SqlQuoteTest, EscapesQuotes) {
  EXPECT_EQ(SqlQuote("a'b"), "'a''b'");
  EXPECT_EQ(SqlQuote(""), "''");
}

}  // namespace
}  // namespace hyperq::core

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "cdw/cdw_server.h"
#include "cloudstore/object_store.h"
#include "common/bytes.h"
#include "common/fault.h"
#include "obs/metrics.h"

/// The modelled warehouse round trip: a statement, batch or COPY with a
/// startup cost of S never returns before S has passed since it arrived,
/// and each one's wait is observed in cdw_modelled_wait_seconds. There is
/// no upper bound here: how late a wait ends depends on the host's load.
/// The batch verb: one round trip for many statements, each with its own
/// set-oriented abort, stopping at the first unexpected outcome.

namespace hyperq::cdw {
namespace {

using Clock = std::chrono::steady_clock;

/// Startup costs below and above the server's sleep margin, so both the
/// yield-only and the sleep-then-yield waits run.
constexpr int64_t kCostsMicros[] = {100, 2000};

TEST(CdwServerTest, StatementNeverReturnsBeforeItsStartupCost) {
  for (int64_t cost : kCostsMicros) {
    cloud::ObjectStore store;
    obs::MetricsRegistry metrics;
    CdwServerOptions options;
    options.statement_startup_micros = cost;
    options.metrics = &metrics;
    CdwServer cdw(&store, options);
    ASSERT_TRUE(cdw.ExecuteSql("CREATE TABLE T (ID INTEGER)").ok());
    for (int i = 0; i < 20; ++i) {
      const Clock::time_point sent = Clock::now();
      ASSERT_TRUE(cdw.ExecuteSql("SELECT COUNT(*) FROM T").ok());
      EXPECT_GE(Clock::now() - sent, std::chrono::microseconds(cost)) << cost << " us";
    }
    const obs::HistogramSnapshot waits =
        metrics.Snapshot().histograms.at("cdw_modelled_wait_seconds");
    EXPECT_EQ(waits.count, 21u);
    EXPECT_GT(waits.sum, 0.0);
  }
}

TEST(CdwServerTest, CopyNeverReturnsBeforeItsStartupCost) {
  for (int64_t cost : kCostsMicros) {
    cloud::ObjectStore store;
    CdwServerOptions options;
    options.copy_startup_micros = cost;
    CdwServer cdw(&store, options);
    ASSERT_TRUE(cdw.ExecuteSql("CREATE TABLE T (ID INTEGER)").ok());
    for (int i = 0; i < 20; ++i) {
      const std::string prefix = "stg/" + std::to_string(i) + "/";
      ASSERT_TRUE(store.Put(prefix + "part.csv", common::Slice(std::string_view("1\n"))).ok());
      const Clock::time_point sent = Clock::now();
      ASSERT_TRUE(cdw.CopyInto("T", prefix).ok());
      EXPECT_GE(Clock::now() - sent, std::chrono::microseconds(cost)) << cost << " us";
    }
  }
}

TEST(CdwServerTest, BatchPaysItsStartupCostOnce) {
  constexpr int64_t kCost = 2000;
  constexpr size_t kStatements = 8;
  cloud::ObjectStore store;
  obs::MetricsRegistry metrics;
  CdwServerOptions options;
  options.statement_startup_micros = kCost;
  options.metrics = &metrics;
  CdwServer cdw(&store, options);
  ASSERT_TRUE(cdw.ExecuteSql("CREATE TABLE T (ID INTEGER)").ok());
  std::vector<BatchStatement> batch;
  for (size_t i = 0; i < kStatements; ++i) {
    batch.push_back({"INSERT INTO T VALUES (" + std::to_string(i) + ")", {}, false});
  }
  const Clock::time_point sent = Clock::now();
  auto ran = cdw.ExecBatch(batch);
  EXPECT_GE(Clock::now() - sent, std::chrono::microseconds(kCost));
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  ASSERT_EQ(ran->size(), kStatements);
  for (const auto& r : *ran) EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(cdw.statements_executed(), 1 + kStatements);
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("cdw_statements_total"), 1 + kStatements);
  EXPECT_EQ(snap.counters.at("cdw_round_trips_total"), 2u);
  EXPECT_EQ(snap.histograms.at("cdw_modelled_wait_seconds").count, 2u);
  EXPECT_EQ(snap.histograms.at("cdw_statement_seconds").count, 2u);
}

/// A server with T (ID INTEGER, unique primary key) holding the row 1.
class CdwBatchTest : public ::testing::Test {
 protected:
  CdwBatchTest() : cdw_(&store_) {
    types::Schema schema;
    schema.AddField(types::Field("ID", types::TypeDesc::Int64(), /*nullable=*/false));
    EXPECT_TRUE(cdw_.catalog()->CreateTable("T", schema, {"ID"}, /*unique=*/true).ok());
    EXPECT_TRUE(cdw_.ExecuteSql("INSERT INTO T VALUES (1)").ok());
  }

  static BatchStatement Clean(const std::string& sql) {
    BatchStatement statement{sql, {}, false};
    statement.options.enforce_unique_primary = true;
    return statement;
  }
  static BatchStatement Suspect(const std::string& sql) {
    BatchStatement statement = Clean(sql);
    statement.expect_conversion_error = true;
    return statement;
  }

  /// How many statements of `batch` ran, and how many rows T holds after.
  std::pair<size_t, int64_t> Run(const std::vector<BatchStatement>& batch) {
    auto ran = cdw_.ExecBatch(batch);
    EXPECT_TRUE(ran.ok()) << ran.status().ToString();
    auto count = cdw_.ExecuteSql("SELECT COUNT(*) FROM T");
    EXPECT_TRUE(count.ok());
    return {ran.ok() ? ran->size() : 0, count.ok() ? count->rows[0][0].int_value() : -1};
  }

  cloud::ObjectStore store_;
  CdwServer cdw_;
};

TEST_F(CdwBatchTest, StopsAfterASuspectThatSucceeds) {
  EXPECT_EQ(Run({Clean("INSERT INTO T VALUES (2)"), Suspect("INSERT INTO T VALUES (3)"),
                 Clean("INSERT INTO T VALUES (4)")}),
            std::make_pair(size_t{2}, int64_t{3}));
}

TEST_F(CdwBatchTest, StopsAfterACleanStatementThatFails) {
  EXPECT_EQ(Run({Clean("INSERT INTO T VALUES (2), ('x')"), Clean("INSERT INTO T VALUES (3)")}),
            std::make_pair(size_t{1}, int64_t{1}));
}

TEST_F(CdwBatchTest, StopsAfterASuspectThatFailsAnotherWay) {
  auto ran = cdw_.ExecBatch({Suspect("INSERT INTO T VALUES (1)"),  // a duplicate key
                             Clean("INSERT INTO T VALUES (3)")});
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  ASSERT_EQ(ran->size(), 1u);
  EXPECT_TRUE((*ran)[0].status().IsConstraintViolation()) << (*ran)[0].status().ToString();
}

TEST_F(CdwBatchTest, FailedStatementLeavesNoRowsWhileLaterOnesApply) {
  auto ran = cdw_.ExecBatch({Suspect("INSERT INTO T VALUES (2), ('x'), (3)"),
                             Clean("INSERT INTO T VALUES (4)"),
                             Suspect("INSERT INTO T VALUES (NULL)"),
                             Clean("INSERT INTO T VALUES (5)")});
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  ASSERT_EQ(ran->size(), 4u);
  EXPECT_TRUE((*ran)[0].status().IsConversionError()) << (*ran)[0].status().ToString();
  EXPECT_TRUE((*ran)[2].status().IsConversionError()) << (*ran)[2].status().ToString();
  auto ids = cdw_.ExecuteSql("SELECT ID FROM T ORDER BY ID");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  std::vector<int64_t> got;
  for (const auto& row : ids->rows) got.push_back(row[0].int_value());
  EXPECT_EQ(got, (std::vector<int64_t>{1, 4, 5}));
}

TEST_F(CdwBatchTest, InjectedFaultRunsNoStatement) {
  common::FaultInjector::Global().ResetForTesting();
  ASSERT_TRUE(common::FaultInjector::Global().Arm("cdw.exec=error,once=1").ok());
  const uint64_t before = cdw_.statements_executed();
  auto ran = cdw_.ExecBatch({Clean("INSERT INTO T VALUES (2)"), Clean("INSERT INTO T VALUES (3)")});
  common::FaultInjector::Global().ResetForTesting();
  EXPECT_FALSE(ran.ok());
  EXPECT_EQ(cdw_.statements_executed(), before);
  EXPECT_EQ(Run({}), std::make_pair(size_t{0}, int64_t{1}));
}

}  // namespace
}  // namespace hyperq::cdw

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "cdw/cdw_server.h"
#include "cloudstore/object_store.h"
#include "common/bytes.h"
#include "obs/metrics.h"

/// The modelled warehouse round trip: a statement or COPY with a startup
/// cost of S never returns before S has passed since it arrived, and each
/// one's wait is observed in cdw_modelled_wait_seconds. There is no upper
/// bound here: how late a wait ends depends on the host's load.

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

}  // namespace
}  // namespace hyperq::cdw

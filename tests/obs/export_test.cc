#include "obs/export.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "obs/dumper.h"

namespace hyperq::obs {
namespace {

MetricsSnapshot SampleSnapshot() {
  MetricsRegistry reg;
  reg.GetCounter("hyperq_chunks_total")->Increment(12);
  reg.GetCounter("hyperq_rows_received_total")->Increment(4800);
  reg.GetGauge("hyperq_credits_in_use")->Set(-2);  // signed values survive
  Histogram* h = reg.GetHistogram("hyperq_convert_seconds");
  h->Observe(0.5e-6);
  h->Observe(3e-3);
  h->Observe(3e-3);
  h->Observe(500.0);
  return reg.Snapshot();
}

TEST(PrometheusExportTest, GoldenOutput) {
  MetricsRegistry reg;
  reg.GetCounter("jobs_total")->Increment(3);
  reg.GetGauge("queue_depth")->Set(7);
  std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_EQ(text,
            "# TYPE jobs_total counter\n"
            "jobs_total 3\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 7\n");
}

TEST(PrometheusExportTest, HistogramSeriesIsCumulativeWithInfBucket) {
  MetricsSnapshot snap = SampleSnapshot();
  std::string text = ToPrometheusText(snap);
  // Bucket series is cumulative; the +Inf bucket equals the total count.
  EXPECT_NE(text.find("hyperq_convert_seconds_bucket{le=\"1e-06\"} 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("hyperq_convert_seconds_bucket{le=\"0.005\"} 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("hyperq_convert_seconds_bucket{le=\"+Inf\"} 4\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("hyperq_convert_seconds_count 4\n"), std::string::npos) << text;
}

TEST(PrometheusExportTest, RoundTripsExactly) {
  MetricsSnapshot snap = SampleSnapshot();
  auto parsed = FromPrometheusText(ToPrometheusText(snap));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, snap);
}

TEST(PrometheusExportTest, LabeledHistogramRoundTrips) {
  // Labeled instruments (the per-rank lock-wait histograms) carry their
  // labels on every series, with le last.
  MetricsRegistry reg;
  reg.GetHistogram("hyperq_lock_wait_seconds{rank=\"kQueue\"}")->Observe(3e-3);
  reg.GetCounter("hyperq_lock_contention_total{rank=\"kQueue\"}")->Increment(2);
  MetricsSnapshot snap = reg.Snapshot();
  std::string text = ToPrometheusText(snap);
  EXPECT_NE(text.find("hyperq_lock_wait_seconds_bucket{rank=\"kQueue\",le=\"+Inf\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hyperq_lock_wait_seconds_count{rank=\"kQueue\"} 1\n"), std::string::npos)
      << text;
  auto parsed = FromPrometheusText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, snap);
}

TEST(PrometheusExportTest, EmptySnapshotRoundTrips) {
  MetricsSnapshot empty;
  auto parsed = FromPrometheusText(ToPrometheusText(empty));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, empty);
}

TEST(PrometheusExportTest, RejectsMalformedInput) {
  EXPECT_FALSE(FromPrometheusText("stray_sample 42\n").ok());
  EXPECT_FALSE(FromPrometheusText("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\n").ok());
}

TEST(JsonExportTest, GoldenOutput) {
  MetricsRegistry reg;
  reg.GetCounter("jobs_total")->Increment(3);
  reg.GetGauge("queue_depth")->Set(7);
  std::string json = ToJson(reg.Snapshot());
  EXPECT_EQ(json,
            "{\n"
            "  \"counters\": {\n"
            "    \"jobs_total\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"queue_depth\": 7\n"
            "  },\n"
            "  \"histograms\": {}\n"
            "}\n");
}

TEST(JsonExportTest, RoundTripsExactly) {
  MetricsSnapshot snap = SampleSnapshot();
  auto parsed = FromJson(ToJson(snap));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, snap);
}

TEST(JsonExportTest, EmptySnapshotRoundTrips) {
  MetricsSnapshot empty;
  auto parsed = FromJson(ToJson(empty));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, empty);
}

TEST(JsonExportTest, SkipsUnknownKeysAndRejectsGarbage) {
  auto parsed = FromJson("{\"counters\": {\"a\": 1}, \"extra\": [1, {\"x\": \"y\"}]}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->counters.at("a"), 1u);
  EXPECT_FALSE(FromJson("not json").ok());
  EXPECT_FALSE(FromJson("{\"counters\": {").ok());
}

TEST(JsonExportTest, CrossFormatAgreement) {
  // Both wire formats decode back to the identical snapshot.
  MetricsSnapshot snap = SampleSnapshot();
  auto from_prom = FromPrometheusText(ToPrometheusText(snap));
  auto from_json = FromJson(ToJson(snap));
  ASSERT_TRUE(from_prom.ok());
  ASSERT_TRUE(from_json.ok());
  EXPECT_EQ(*from_prom, *from_json);
}

TEST(SnapshotDumperTest, PeriodicallyDumpsAndStopsCleanly) {
  MetricsRegistry reg;
  reg.GetCounter("ticks_total")->Increment();
  std::vector<MetricsSnapshot> dumps;
  common::Mutex mu{common::LockRank::kJob, "test"};
  SnapshotDumperOptions options;
  options.interval = std::chrono::milliseconds(20);
  options.dump_on_stop = true;
  options.sink = [&](const MetricsSnapshot& snap) {
    common::MutexLock lock(&mu);
    dumps.push_back(snap);
  };
  SnapshotDumper dumper(&reg, options);
  dumper.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  dumper.Stop();
  uint64_t total = dumper.dumps();
  EXPECT_GE(total, 1u);
  common::MutexLock lock(&mu);
  ASSERT_EQ(dumps.size(), total);
  // The dumped snapshot survives a JSON round trip.
  auto parsed = FromJson(ToJson(dumps.back()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->counters.at("ticks_total"), 1u);
}

TEST(SnapshotDumperTest, WritesLockGraphDotFileOnEveryDump) {
  common::LockOrderGraph::Global().ResetForTesting();
  // Seed one real edge so the dumped DOT has content beyond the header.
  common::Mutex outer{common::LockRank::kServer, "dump_outer"};
  common::Mutex inner{common::LockRank::kJob, "dump_inner"};
  {
    common::MutexLock lock_outer(&outer);
    common::MutexLock lock_inner(&inner);
  }

  const std::string path = ::testing::TempDir() + "hq_dumper_lock_graph.dot";
  std::remove(path.c_str());
  MetricsRegistry reg;
  SnapshotDumperOptions options;
  options.interval = std::chrono::hours(1);  // only the stop-dump fires
  options.dump_on_stop = true;
  options.sink = [](const MetricsSnapshot&) {};
  options.lock_graph_path = path;
  SnapshotDumper dumper(&reg, options);
  dumper.Start();
  dumper.Stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "lock graph not written to " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string dot = buf.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos) << dot;
  EXPECT_NE(dot.find("kServer"), std::string::npos) << dot;
  EXPECT_NE(dot.find("kJob"), std::string::npos) << dot;
  // Per-instance mutex-name edges ride along in the same DOT file.
  EXPECT_NE(dot.find("\"dump_outer\" -> \"dump_inner\""), std::string::npos) << dot;
  std::remove(path.c_str());
  common::LockOrderGraph::Global().ResetForTesting();
}

TEST(LockGraphJsonTest, NameEdgesAppearInJsonExport) {
  common::LockOrderGraph::Global().ResetForTesting();
  common::Mutex outer{common::LockRank::kServer, "json_outer"};
  common::Mutex inner{common::LockRank::kJob, "json_inner"};
  {
    common::MutexLock lock_outer(&outer);
    common::MutexLock lock_inner(&inner);
  }
  const std::string json = LockGraphToJson(common::LockOrderGraph::Global().Snapshot());
  EXPECT_NE(json.find("\"name_edges\""), std::string::npos) << json;
  EXPECT_NE(json.find("json_outer"), std::string::npos) << json;
  EXPECT_NE(json.find("json_inner"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped_name_edges\": 0"), std::string::npos) << json;
  common::LockOrderGraph::Global().ResetForTesting();
}

TEST(SnapshotDumperTest, NoLockGraphPathMeansNoFile) {
  MetricsRegistry reg;
  SnapshotDumperOptions options;
  options.interval = std::chrono::hours(1);
  options.dump_on_stop = true;
  options.sink = [](const MetricsSnapshot&) {};
  SnapshotDumper dumper(&reg, options);
  dumper.Start();
  dumper.Stop();  // must not crash or write anywhere with no path configured
  EXPECT_GE(dumper.dumps(), 1u);
}

}  // namespace
}  // namespace hyperq::obs

#include "metrics.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

using hyperq::obs::HistogramSnapshot;
using hyperq::obs::MetricsSnapshot;
using hyperq::obs::SpanRecord;

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted input
  return v;
}

TEST(SummarizeTest, EmptyHasNoMedianOrTail) {
  Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.tail_q, 0);
}

TEST(SummarizeTest, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Summarize({3, 1, 2}).median, 2);
  EXPECT_DOUBLE_EQ(Summarize({4, 1, 3, 2}).median, 2.5);
}

TEST(SummarizeTest, FewSamplesSupportNoTail) {
  // 39 samples: p75 has 9 beyond it, so no rung of the ladder qualifies.
  Summary s = Summarize(Ramp(39));
  EXPECT_EQ(s.count, 39u);
  EXPECT_EQ(s.tail_q, 0);
}

TEST(SummarizeTest, PicksHighestPercentileWithTenBeyond) {
  // 1000 samples: p99 is the 990th value, ten values lie above it.
  Summary s = Summarize(Ramp(1000));
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);
  EXPECT_DOUBLE_EQ(s.tail, 990);
  // 999 samples: p99 would leave nine beyond, so p95 is reported.
  s = Summarize(Ramp(999));
  EXPECT_DOUBLE_EQ(s.tail_q, 0.95);
  EXPECT_DOUBLE_EQ(s.tail, 950);
  // 10000 samples support p99.9.
  EXPECT_DOUBLE_EQ(Summarize(Ramp(10000)).tail_q, 0.999);
}

TEST(SummarizeTest, TiesAtTheTopDoNotCountAsBeyond) {
  // 200 samples whose top 20 are equal: p99 and p95 sit inside the tie and
  // have nothing strictly above them; p90 has the 20 tied values beyond.
  std::vector<double> v = Ramp(180);
  for (int i = 0; i < 20; ++i) v.push_back(1000);
  Summary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.90);
  EXPECT_DOUBLE_EQ(s.tail, 180);
}

TEST(UnionLengthTest, MergesOverlapsAndSkipsEmpty) {
  EXPECT_EQ(UnionLength({}), 0);
  EXPECT_EQ(UnionLength({{0, 10}, {5, 15}, {20, 25}}), 20);
  EXPECT_EQ(UnionLength({{20, 25}, {0, 10}, {10, 12}}), 17);  // touching intervals
  EXPECT_EQ(UnionLength({{0, 100}, {10, 20}, {30, 40}}), 100);
  EXPECT_EQ(UnionLength({{5, 5}, {7, 3}}), 0);
}

SpanRecord Span(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  SpanRecord s;
  s.id = id;
  s.parent_id = parent;
  s.start_micros = start;
  s.end_micros = end;
  return s;
}

TEST(SelfMicrosTest, OverlappingChildrenCountOnce) {
  // Two convert workers overlap on [20, 40): the root's covered part is
  // [10, 60), not the 70 us the durations add up to.
  std::vector<SpanRecord> spans = {Span(1, 0, 0, 100), Span(2, 1, 10, 40), Span(3, 1, 20, 60)};
  auto self = SelfMicros(spans);
  EXPECT_EQ(self[1], 50);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 40);
}

TEST(SelfMicrosTest, NestedChildrenOnlyReduceTheirParent) {
  // root [0,100) > apply [10,90) > statement [20,50); the grandchild does
  // not reduce the root a second time.
  std::vector<SpanRecord> spans = {Span(1, 0, 0, 100), Span(2, 1, 10, 90), Span(3, 2, 20, 50)};
  auto self = SelfMicros(spans);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 50);
  EXPECT_EQ(self[3], 30);
}

TEST(SelfMicrosTest, ChildOutsideParentIsClippedAndOpenSpansSkipped) {
  std::vector<SpanRecord> spans = {Span(1, 0, 0, 100), Span(2, 1, 90, 130),
                                   Span(3, 1, 5, -1)};  // still open
  auto self = SelfMicros(spans);
  EXPECT_EQ(self[1], 90);
  EXPECT_EQ(self[2], 40);
  EXPECT_EQ(self.count(3), 0u);
}

HistogramSnapshot Hist(uint64_t count, double sum, std::vector<uint64_t> buckets) {
  HistogramSnapshot h;
  h.count = count;
  h.sum = sum;
  h.buckets = std::move(buckets);
  return h;
}

TEST(AddDeltaTest, AccumulatesChangeAcrossIntervals) {
  MetricsSnapshot before;
  before.counters["rows"] = 100;
  before.gauges["hits"] = 7;
  before.histograms["lat"] = Hist(2, 0.5, {1, 1, 0});
  MetricsSnapshot after = before;
  after.counters["rows"] = 150;
  after.gauges["hits"] = 10;
  after.histograms["lat"] = Hist(5, 2.0, {1, 3, 1});
  after.counters["new"] = 4;  // first seen inside the interval

  MetricsSnapshot acc;
  AddDelta(before, after, &acc);
  AddDelta(before, after, &acc);  // a second, identical interval
  EXPECT_EQ(acc.counters["rows"], 100u);
  EXPECT_EQ(acc.counters["new"], 8u);
  EXPECT_EQ(acc.gauges["hits"], 6);
  EXPECT_EQ(acc.histograms["lat"].count, 6u);
  EXPECT_DOUBLE_EQ(acc.histograms["lat"].sum, 3.0);
  EXPECT_EQ(acc.histograms["lat"].buckets, (std::vector<uint64_t>{0, 4, 2}));
}

TEST(AddDeltaTest, UnchangedRegistryAddsZero) {
  MetricsSnapshot snap;
  snap.counters["c"] = 9;
  snap.histograms["h"] = Hist(1, 1.0, {1});
  MetricsSnapshot acc;
  AddDelta(snap, snap, &acc);
  EXPECT_EQ(acc.counters["c"], 0u);
  EXPECT_EQ(acc.histograms["h"].count, 0u);
  EXPECT_DOUBLE_EQ(acc.histograms["h"].sum, 0);
}

}  // namespace
}  // namespace perfbench

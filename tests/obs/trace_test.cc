#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

namespace hyperq::obs {
namespace {

TEST(TraceTest, RootSpanOpensAtConstructionAndClosesOnFinish) {
  Trace trace("job1", Phase::kImport);
  auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].id, trace.root_id());
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[0].phase, Phase::kImport);
  EXPECT_FALSE(spans[0].finished());

  trace.Finish();
  spans = trace.spans();
  EXPECT_TRUE(spans[0].finished());
  EXPECT_GE(spans[0].duration_micros(), 0);
}

TEST(TraceTest, SpansNestUnderParentsAndPreserveOrder) {
  Trace trace("job1");
  uint64_t convert = trace.StartSpan(Phase::kRowConvert, "convert");
  uint64_t write = trace.StartSpan(Phase::kFileWrite, "write");
  uint64_t compress = trace.StartSpan(Phase::kCompress, "compress", write);
  trace.EndSpan(compress);
  trace.EndSpan(write);
  trace.EndSpan(convert);

  auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Append order: root, convert, write, compress.
  EXPECT_EQ(spans[1].id, convert);
  EXPECT_EQ(spans[1].parent_id, trace.root_id());  // parent 0 attaches to root
  EXPECT_EQ(spans[2].id, write);
  EXPECT_EQ(spans[3].id, compress);
  EXPECT_EQ(spans[3].parent_id, write);
  for (const auto& s : spans) {
    if (s.id != trace.root_id()) {
      EXPECT_TRUE(s.finished()) << s.name;
      EXPECT_GE(s.end_micros, s.start_micros);
    }
  }
  // Start order follows call order.
  EXPECT_LE(spans[1].start_micros, spans[2].start_micros);
  EXPECT_LE(spans[2].start_micros, spans[3].start_micros);
}

TEST(TraceTest, RecordSpanBackfillsMeasuredInterval) {
  Trace trace("job1");
  auto start = std::chrono::steady_clock::now();
  auto end = start + std::chrono::microseconds(1500);
  trace.RecordSpan(Phase::kParcelDecode, "decode", 0, start, end);

  auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].phase, Phase::kParcelDecode);
  EXPECT_TRUE(spans[1].finished());
  EXPECT_EQ(spans[1].duration_micros(), 1500);
}

TEST(TraceTest, CapsSpansAndCountsDropped) {
  Trace trace("job1", Phase::kImport, /*max_spans=*/4);
  for (int i = 0; i < 10; ++i) {
    // Appends, not `"s" + std::to_string(i)`: GCC 12 -Wrestrict at -O3.
    std::string name = "s";
    name += std::to_string(i);
    uint64_t id = trace.StartSpan(Phase::kOther, name);
    trace.EndSpan(id);  // EndSpan(0) no-op once full
  }
  EXPECT_EQ(trace.spans().size(), 4u);
  EXPECT_EQ(trace.dropped(), 7u);  // 10 attempts, 3 stored (root uses a slot)
}

TEST(TraceTest, ConcurrentSpanRecordingIsSafe) {
  Trace trace("job1");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(&trace, Phase::kRowConvert, "convert");
      }
    });
  }
  for (auto& t : threads) t.join();
  auto spans = trace.spans();
  EXPECT_EQ(spans.size() + trace.dropped(), 1u + kThreads * kPerThread);
  // Ids are unique.
  std::vector<uint64_t> ids;
  for (const auto& s : spans) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(ScopedSpanTest, NullTraceIsSafeAndEndIsIdempotent) {
  { ScopedSpan span(nullptr, Phase::kOther, "noop"); }
  Trace trace("job1");
  {
    ScopedSpan span(&trace, Phase::kOther, "x");
    span.End();
    span.End();
  }
  auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[1].finished());
}

TEST(TraceTest, ToJsonContainsJobAndSpanFields) {
  Trace trace("job_json");
  uint64_t id = trace.StartSpan(Phase::kStorePut, "put_batch");
  trace.EndSpan(id);
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"job_id\":\"job_json\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"phase\":\"upload\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"put_batch\""), std::string::npos) << json;
}

TEST(TracerTest, StartTraceGetsOrCreatesAndFindLocates) {
  Tracer tracer;
  auto a = tracer.StartTrace("j1", Phase::kImport);
  auto b = tracer.StartTrace("j1", Phase::kImport);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(tracer.Find("j1").get(), a.get());
  EXPECT_EQ(tracer.Find("missing"), nullptr);
  tracer.StartTrace("j2", Phase::kExport);
  auto ids = tracer.job_ids();
  EXPECT_EQ(ids.size(), 2u);
}

TEST(PhaseNameTest, EveryPhaseHasAName) {
  for (int p = 0; p <= static_cast<int>(Phase::kOther); ++p) {
    EXPECT_NE(PhaseName(static_cast<Phase>(p)), nullptr);
    EXPECT_GT(std::string(PhaseName(static_cast<Phase>(p))).size(), 0u);
  }
}

}  // namespace
}  // namespace hyperq::obs

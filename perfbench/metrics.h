#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

/// \file metrics.h
/// The benchmark's own metric arithmetic, kept apart from the harness so its
/// tests can pin it: the percentile rule every timing uses, span self time,
/// and registry deltas over a timed interval.

namespace perfbench {

/// A timing as the benchmark reports it: the median, plus the highest
/// percentile of a fixed ladder that still has at least ten samples strictly
/// above it (tail_q = 0 when no rung qualifies), and the sample count.
struct Summary {
  size_t count = 0;
  double median = 0;
  double tail_q = 0;  ///< e.g. 0.99; 0 = the sample supports no tail
  double tail = 0;
};

/// Samples strictly beyond the chosen tail percentile must be at least this
/// many, so a reported p99 is never the single worst run.
inline constexpr size_t kTailSupport = 10;

Summary Summarize(std::vector<double> samples);

/// Length of the union of half-open [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals);

/// Self time of every finished span: its duration minus the part of it its
/// children cover. Children that overlap one another (parallel convert
/// workers) are counted once; a child sticking out of its parent is clipped.
std::map<uint64_t, int64_t> SelfMicros(const std::vector<hyperq::obs::SpanRecord>& spans);

/// Adds (after - before) into `acc` for every counter, gauge and histogram
/// (count, sum and per-bucket counts). Gauges are differenced too: the ones
/// the benchmark reads mirror cumulative totals. Instruments first seen in
/// `after` count from zero.
void AddDelta(const hyperq::obs::MetricsSnapshot& before,
              const hyperq::obs::MetricsSnapshot& after, hyperq::obs::MetricsSnapshot* acc);

}  // namespace perfbench

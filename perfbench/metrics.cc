#include "metrics.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

/// Nearest-rank percentile (q in (0,1]) of ascending `sorted`.
double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  size_t mid = samples.size() / 2;
  s.median = samples.size() % 2 == 1 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2;
  for (double q : {0.999, 0.99, 0.95, 0.90, 0.75}) {
    double value = NearestRank(samples, q);
    auto beyond = static_cast<size_t>(samples.end() -
                                      std::upper_bound(samples.begin(), samples.end(), value));
    if (beyond >= kTailSupport) {
      s.tail_q = q;
      s.tail = value;
      break;
    }
  }
  return s;
}

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::map<uint64_t, int64_t> SelfMicros(const std::vector<hyperq::obs::SpanRecord>& spans) {
  std::map<uint64_t, const hyperq::obs::SpanRecord*> by_id;
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const auto& span : spans) {
    if (!span.finished()) continue;
    by_id[span.id] = &span;
  }
  for (const auto& span : spans) {
    if (!span.finished() || span.parent_id == 0) continue;
    auto parent = by_id.find(span.parent_id);
    if (parent == by_id.end()) continue;
    int64_t start = std::max(span.start_micros, parent->second->start_micros);
    int64_t end = std::min(span.end_micros, parent->second->end_micros);
    children[span.parent_id].emplace_back(start, end);
  }
  std::map<uint64_t, int64_t> self;
  for (const auto& [id, span] : by_id) {
    auto it = children.find(id);
    int64_t covered = it == children.end() ? 0 : UnionLength(it->second);
    self[id] = span->duration_micros() - covered;
  }
  return self;
}

void AddDelta(const hyperq::obs::MetricsSnapshot& before,
              const hyperq::obs::MetricsSnapshot& after, hyperq::obs::MetricsSnapshot* acc) {
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    acc->counters[name] += value - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, value] : after.gauges) {
    auto it = before.gauges.find(name);
    acc->gauges[name] += value - (it == before.gauges.end() ? 0 : it->second);
  }
  for (const auto& [name, hist] : after.histograms) {
    auto it = before.histograms.find(name);
    const hyperq::obs::HistogramSnapshot* prev =
        it == before.histograms.end() ? nullptr : &it->second;
    hyperq::obs::HistogramSnapshot& sum = acc->histograms[name];
    sum.count += hist.count - (prev == nullptr ? 0 : prev->count);
    sum.sum += hist.sum - (prev == nullptr ? 0 : prev->sum);
    sum.buckets.resize(hist.buckets.size(), 0);
    for (size_t b = 0; b < hist.buckets.size(); ++b) {
      uint64_t base = prev == nullptr || b >= prev->buckets.size() ? 0 : prev->buckets[b];
      sum.buckets[b] += hist.buckets[b] - base;
    }
  }
}

}  // namespace perfbench

#include "obs/trace.h"

#include <sstream>
#include <thread>

namespace hyperq::obs {

namespace {

int64_t MicrosSince(Trace::TimePoint epoch, Trace::TimePoint t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch).count();
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kImport:
      return "import";
    case Phase::kExport:
      return "export";
    case Phase::kStream:
      return "stream";
    case Phase::kParcelDecode:
      return "decode";
    case Phase::kCreditWait:
      return "credit_wait";
    case Phase::kRowConvert:
      return "convert";
    case Phase::kFileWrite:
      return "write";
    case Phase::kCompress:
      return "compress";
    case Phase::kStorePut:
      return "upload";
    case Phase::kCdwCopy:
      return "copy";
    case Phase::kDmlApply:
      return "apply";
    case Phase::kQuery:
      return "query";
    case Phase::kExportChunk:
      return "export_chunk";
    case Phase::kRetryBackoff:
      return "retry_backoff";
    case Phase::kOther:
      return "other";
  }
  return "other";
}

Trace::Trace(std::string job_id, Phase root_phase, size_t max_spans)
    : job_id_(std::move(job_id)),
      epoch_(std::chrono::steady_clock::now()),
      max_spans_(max_spans) {
  SpanRecord root;
  root.id = next_id_++;
  root.parent_id = 0;
  root.phase = root_phase;
  root.name = PhaseName(root_phase);
  root.start_micros = 0;
  root.thread_id = ThreadHash();
  spans_.push_back(std::move(root));
}

uint64_t Trace::ThreadHash() const {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

uint64_t Trace::StartSpan(Phase phase, std::string name, uint64_t parent_id) {
  int64_t now = MicrosSince(epoch_, std::chrono::steady_clock::now());
  common::MutexLock lock(&mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  SpanRecord span;
  span.id = next_id_++;
  span.parent_id = parent_id == 0 ? root_id() : parent_id;
  span.phase = phase;
  span.name = name.empty() ? PhaseName(phase) : std::move(name);
  span.start_micros = now;
  span.thread_id = ThreadHash();
  uint64_t id = span.id;
  spans_.push_back(std::move(span));
  return id;
}

void Trace::EndSpan(uint64_t span_id) {
  if (span_id == 0) return;
  int64_t now = MicrosSince(epoch_, std::chrono::steady_clock::now());
  common::MutexLock lock(&mu_);
  // Spans are append-only with ids assigned in order: id n lives at index
  // n-1 unless the trace overflowed, in which case fall back to a scan.
  size_t guess = static_cast<size_t>(span_id - 1);
  if (guess < spans_.size() && spans_[guess].id == span_id) {
    spans_[guess].end_micros = now;
    return;
  }
  for (auto& span : spans_) {
    if (span.id == span_id) {
      span.end_micros = now;
      return;
    }
  }
}

void Trace::RecordSpan(Phase phase, std::string name, uint64_t parent_id, TimePoint start,
                       TimePoint end) {
  common::MutexLock lock(&mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  SpanRecord span;
  span.id = next_id_++;
  span.parent_id = parent_id == 0 ? root_id() : parent_id;
  span.phase = phase;
  span.name = name.empty() ? PhaseName(phase) : std::move(name);
  span.start_micros = MicrosSince(epoch_, start);
  span.end_micros = MicrosSince(epoch_, end);
  span.thread_id = ThreadHash();
  spans_.push_back(std::move(span));
}

void Trace::Finish() { EndSpan(root_id()); }

std::vector<SpanRecord> Trace::spans() const {
  common::MutexLock lock(&mu_);
  return spans_;
}

uint64_t Trace::dropped() const {
  common::MutexLock lock(&mu_);
  return dropped_;
}

std::string Trace::ToJson() const {
  std::vector<SpanRecord> copy = spans();
  std::string out = "{\"job_id\":";
  AppendJsonString(&out, job_id_);
  out += ",\"spans\":[";
  for (size_t i = 0; i < copy.size(); ++i) {
    const SpanRecord& s = copy[i];
    if (i != 0) out.push_back(',');
    out += "{\"id\":" + std::to_string(s.id);
    out += ",\"parent\":" + std::to_string(s.parent_id);
    out += ",\"phase\":";
    AppendJsonString(&out, PhaseName(s.phase));
    out += ",\"name\":";
    AppendJsonString(&out, s.name);
    out += ",\"start_us\":" + std::to_string(s.start_micros);
    out += ",\"end_us\":" + std::to_string(s.end_micros);
    out += ",\"tid\":" + std::to_string(s.thread_id);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::shared_ptr<Trace> Tracer::StartTrace(const std::string& job_id, Phase root_phase) {
  common::MutexLock lock(&mu_);
  auto& slot = traces_[job_id];
  if (!slot) slot = std::make_shared<Trace>(job_id, root_phase);
  return slot;
}

std::shared_ptr<Trace> Tracer::Find(const std::string& job_id) const {
  common::MutexLock lock(&mu_);
  auto it = traces_.find(job_id);
  return it == traces_.end() ? nullptr : it->second;
}

std::vector<std::string> Tracer::job_ids() const {
  common::MutexLock lock(&mu_);
  std::vector<std::string> ids;
  ids.reserve(traces_.size());
  for (const auto& [id, trace] : traces_) ids.push_back(id);
  return ids;
}

}  // namespace hyperq::obs

#include "trace.h"

#include <unordered_map>

#include "report.h"

namespace perfbench {

uint64_t Tracer::NextRequestId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

uint64_t Tracer::NextSpanId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_span_++;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans_) {
    int64_t self = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    if (it != child_ns.end()) self -= it->second;
    SelfTime& t = out[s.name];
    t.total_ms += static_cast<double>(self) / 1e6;
    ++t.count;
  }
  return out;
}

SpanScope::SpanScope(Tracer* tracer, const char* name, uint64_t request,
                     uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    span_.name = name;
    span_.id = tracer_->NextSpanId();
    span_.parent = parent;
    span_.request = request;
    span_.start_ns = tracer_->NowNs();
  }
  start_ = Clock::now();
}

double SpanScope::End() {
  if (elapsed_ms_ >= 0) return elapsed_ms_;
  const Clock::time_point end = Clock::now();
  elapsed_ms_ =
      std::chrono::duration<double, std::milli>(end - start_).count();
  if (tracer_ != nullptr) span_.end_ns = tracer_->NowNs();
  return elapsed_ms_;
}

SpanScope::~SpanScope() {
  End();
  if (tracer_ != nullptr) tracer_->Record(std::move(span_));
}

void AppendSpansJson(const std::vector<Span>& spans, size_t limit,
                     std::string* out) {
  out->push_back('[');
  const size_t n = std::min(spans.size(), limit);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (i > 0) out->append(",\n");
    out->append("{\"name\":");
    AppendJsonString(s.name, out);
    out->append(",\"id\":" + std::to_string(s.id) +
                ",\"parent\":" + std::to_string(s.parent) +
                ",\"request\":" + std::to_string(s.request) +
                ",\"start_ns\":" + std::to_string(s.start_ns) +
                ",\"end_ns\":" + std::to_string(s.end_ns));
    if (!s.attrs.empty()) {
      out->append(",\"attrs\":{");
      for (size_t a = 0; a < s.attrs.size(); ++a) {
        if (a > 0) out->push_back(',');
        AppendJsonString(s.attrs[a].first, out);
        out->push_back(':');
        AppendJsonNumber(s.attrs[a].second, out);
      }
      out->push_back('}');
    }
    out->push_back('}');
  }
  out->push_back(']');
}

}  // namespace perfbench

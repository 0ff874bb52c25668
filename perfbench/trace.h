#ifndef TILESTORE_PERFBENCH_TRACE_H_
#define TILESTORE_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One recorded span: an interval of the benchmark's own code around a
/// call into a layer's public functions. Spans of one request share
/// `request`; `parent` is the id of the enclosing span (0 for a root).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;  // relative to the tracer's epoch
  int64_t end_ns = 0;
  /// Counter deltas and QueryStats fields observed at this boundary.
  std::vector<std::pair<const char*, double>> attrs;
};

/// In-memory span recorder. Thread-safe; spans are kept until `Spans()`
/// and written out when the benchmark ends.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NextRequestId();
  uint64_t NextSpanId();
  int64_t NowNs() const;
  void Record(Span span);

  /// All spans recorded so far, in completion order.
  std::vector<Span> Spans() const;

  /// Self time per span name: the span's duration minus the part its
  /// direct children cover, summed over all spans of that name, with the
  /// span count. Children of one span never overlap (each request runs on
  /// one thread), so the subtraction is exact.
  struct SelfTime {
    double total_ms = 0;
    uint64_t count = 0;
    double mean_ms() const { return count == 0 ? 0 : total_ms / count; }
  };
  std::map<std::string, SelfTime> SelfTimes() const;

 private:
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_request_ = 1;
  uint64_t next_span_ = 1;
};

/// Mean self time of spans named `name` in `times` (0 when none).
inline double MeanSelfMs(const std::map<std::string, Tracer::SelfTime>& times,
                         const std::string& name) {
  auto it = times.find(name);
  return it == times.end() ? 0.0 : it->second.mean_ms();
}

/// RAII span. With a null tracer it records nothing and costs two clock
/// reads, so untraced runs time operations through the same object.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t request,
            uint64_t parent = 0);
  /// Records the span (ending it first if `End` was not called).
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t id() const { return span_.id; }
  void Attr(const char* key, double value) {
    if (tracer_ != nullptr) span_.attrs.emplace_back(key, value);
  }
  /// Stops the span's clock (idempotent) and returns its duration in ms.
  /// Attributes may still be added until the scope is destroyed.
  double End();

 private:
  Tracer* tracer_;
  Span span_;
  Clock::time_point start_;
  double elapsed_ms_ = -1;
};

/// Writes `spans` as a JSON array (at most `limit` entries) to `out`.
void AppendSpansJson(const std::vector<Span>& spans, size_t limit,
                     std::string* out);

}  // namespace perfbench

#endif  // TILESTORE_PERFBENCH_TRACE_H_

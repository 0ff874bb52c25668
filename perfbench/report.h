#ifndef TILESTORE_PERFBENCH_REPORT_H_
#define TILESTORE_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A metric the benchmark reports: name and unit exactly as listed in
/// BENCHMARK.json (run.py checks the two agree).
struct MetricDef {
  const char* name;
  const char* unit;
  /// The end-to-end metric this per-layer metric should move (empty for
  /// end-to-end metrics themselves); shown in the traced-run summary.
  const char* moves = "";
};

/// End-to-end metrics, reported by every workload with tracing off.
const std::vector<MetricDef>& EndToEndMetrics();
/// Per-layer metrics, reported by every workload with tracing on. A layer
/// that does no work on a workload reports 0.
const std::vector<MetricDef>& PerLayerMetrics();

using MetricMap = std::map<std::string, double>;

/// Failure bookkeeping shared by every workload: each attempted operation
/// counts once; a failed, mismatched or stalled one also counts as failed.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few messages

  void Ok() { ++attempted; }
  void Fail(const std::string& message);
  void Merge(const Outcome& other);
};

void AppendJsonString(std::string_view s, std::string* out);
/// Writes `v` with all its digits (%.17g); non-finite values become null.
void AppendJsonNumber(double v, std::string* out);
/// `{"name": {"value": v, "unit": u}, ...}` over `defs`, reading `values`
/// (a missing value is written as 0).
std::string MetricsJson(const std::vector<MetricDef>& defs,
                        const MetricMap& values);
/// `{"k": v, ...}` for a flat map.
std::string FlatJson(const MetricMap& values);

}  // namespace perfbench

#endif  // TILESTORE_PERFBENCH_REPORT_H_

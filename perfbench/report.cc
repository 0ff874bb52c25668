#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"ok_frac", "frac"},
      {"ops_per_s", "1/s"},
      {"p50_ms", "ms"},
      {"p99_ms", "ms"},
      {"model_ms", "ms"},
      {"mib_per_s", "MiB/s"},
      {"write_amp", "ratio"},
      {"space_amp", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const char* kScan = "ops_per_s, model_ms on cube_scan";
  static const char* kScanWall = "ops_per_s on cube_scan";
  static const char* kQuery = "ops_per_s on cube_scan, p50_ms on serve_mixed";
  static const char* kServeP50 = "p50_ms on serve_mixed";
  static const char* kNet = "ops_per_s, p99_ms on serve_mixed";
  static const char* kIngest = "mib_per_s on ingest_update";
  static const char* kUpdate = "p50_ms on ingest_update";
  static const char* kWrite = "p99_ms, write_amp on ingest_update";
  static const std::vector<MetricDef> defs = {
      {"index.t_ix_ms", "ms", kScan},
      {"index.t_ix_wall_ms", "ms", kScanWall},
      {"index.nodes_per_query", "count", kScan},
      {"index.tiles_per_query", "count", kScan},
      {"storage.t_o_ms", "ms", kScan},
      {"storage.t_o_wall_ms", "ms", kScanWall},
      {"storage.pages_per_query", "count", kScan},
      {"storage.seeks_per_query", "count", kScan},
      {"storage.pool_hit_ratio", "ratio",
       "ops_per_s on cube_scan; stays near 1 on serve_mixed"},
      {"storage.read_amp", "ratio", kScan},
      {"query.execute_ms", "ms", kQuery},
      {"query.aggregate_ms", "ms", kQuery},
      {"query.filter_ms", "ms", kServeP50},
      {"query.t_cpu_ms", "ms", kScanWall},
      {"query.t_cpu_wall_ms", "ms", kScanWall},
      {"query.summary_skip_ratio", "ratio", kServeP50},
      {"net.client_call_ms", "ms", kNet},
      {"net.server_op_ms", "ms", kNet},
      {"net.remainder_ms", "ms", kNet},
      {"net.bytes_per_request", "B", kNet},
      {"net.rejected_overload", "count", kNet},
      {"tiling.compute_ms", "ms", kIngest},
      {"mdd.load_ms", "ms", kIngest},
      {"mdd.write_region_ms", "ms", kUpdate},
      {"wal.fsync_ms", "ms", kWrite},
      {"wal.fsyncs_per_update", "count", kWrite},
      {"wal.bytes_per_user_byte", "ratio", kWrite},
      {"pagefile.pages_written_per_update", "count", kWrite},
      {"txn.checkpoint_ms", "ms", kWrite},
      {"trace.overhead_frac", "frac", "ops_per_s on every workload"},
  };
  return defs;
}

void Outcome::Fail(const std::string& message) {
  ++attempted;
  ++failed;
  if (failures.size() < 8) failures.push_back(message);
}

void Outcome::Merge(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& f : other.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
}

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(double v, std::string* out) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

std::string MetricsJson(const std::vector<MetricDef>& defs,
                        const MetricMap& values) {
  std::string out = "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) out.append(", ");
    AppendJsonString(defs[i].name, &out);
    out.append(": {\"value\": ");
    auto it = values.find(defs[i].name);
    AppendJsonNumber(it == values.end() ? 0.0 : it->second, &out);
    out.append(", \"unit\": ");
    AppendJsonString(defs[i].unit, &out);
    out.push_back('}');
  }
  out.push_back('}');
  return out;
}

std::string FlatJson(const MetricMap& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) out.append(", ");
    first = false;
    AppendJsonString(name, &out);
    out.append(": ");
    AppendJsonNumber(value, &out);
  }
  out.push_back('}');
  return out;
}

}  // namespace perfbench

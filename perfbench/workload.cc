#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

using tilestore::Array;
using tilestore::Coord;
using tilestore::MInterval;
using tilestore::obs::MetricsSnapshot;

// ---------------------------------------------------------------------------
// Watchdog.

namespace {

constexpr int kWatchdogSlots = 32;

struct WatchSlot {
  std::atomic<const char*> name{nullptr};
  std::atomic<int64_t> start_ns{0};  // 0 = no operation in flight
};
WatchSlot g_slots[kWatchdogSlots];
std::atomic<int> g_next_slot{0};

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int ThisThreadSlot() {
  thread_local int slot = g_next_slot.fetch_add(1) % kWatchdogSlots;
  return slot;
}

[[noreturn]] void Trip(const std::string& what) {
  std::fprintf(stderr, "perfbench: watchdog: %s; aborting the run\n",
               what.c_str());
  std::fflush(stderr);
  std::printf(
      "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": "
      "{}}\n");
  std::fflush(stdout);
  std::_Exit(3);
}

}  // namespace

Watchdog::Watchdog(double stall_seconds, double total_seconds)
    : stall_seconds_(stall_seconds), total_seconds_(total_seconds) {
  thread_ = std::thread([this] { Loop(); });
}

Watchdog::~Watchdog() {
  stop_.store(true);
  thread_.join();
}

void Watchdog::Loop() {
  const int64_t begin = SteadyNs();
  const auto stall_ns = static_cast<int64_t>(stall_seconds_ * 1e9);
  const auto total_ns = static_cast<int64_t>(total_seconds_ * 1e9);
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const int64_t now = SteadyNs();
    for (WatchSlot& slot : g_slots) {
      const int64_t start = slot.start_ns.load();
      if (start != 0 && now - start > stall_ns) {
        const char* name = slot.name.load();
        char limit[32];
        std::snprintf(limit, sizeof(limit), "%g", stall_seconds_);
        Trip(std::string("operation '") + (name ? name : "?") +
             "' stalled for more than " + limit + " s");
      }
    }
    if (now - begin > total_ns) {
      Trip("run exceeded its " +
           std::to_string(static_cast<int>(total_seconds_)) + " s budget");
    }
  }
}

Watchdog::Op::Op(const char* name) : slot_(ThisThreadSlot()) {
  g_slots[slot_].name.store(name);
  g_slots[slot_].start_ns.store(SteadyNs());
}

Watchdog::Op::~Op() { g_slots[slot_].start_ns.store(0); }

// ---------------------------------------------------------------------------
// Statistics and registry helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double P99(std::vector<double> samples_ms) {
  if (samples_ms.empty()) return 0;
  std::sort(samples_ms.begin(), samples_ms.end());
  const auto rank = static_cast<size_t>(
      std::ceil(0.99 * static_cast<double>(samples_ms.size())));
  return samples_ms[std::max<size_t>(rank, 1) - 1];
}

double WindowedP99(const std::vector<std::vector<double>>& groups,
                   size_t min_window) {
  std::vector<std::vector<double>> windows(1);
  for (const std::vector<double>& g : groups) {
    if (windows.back().size() >= min_window) windows.emplace_back();
    windows.back().insert(windows.back().end(), g.begin(), g.end());
  }
  if (windows.size() > 1 && windows.back().size() < min_window) {
    std::vector<double> tail = std::move(windows.back());
    windows.pop_back();
    windows.back().insert(windows.back().end(), tail.begin(), tail.end());
  }
  std::vector<double> p99;
  for (std::vector<double>& w : windows) p99.push_back(P99(std::move(w)));
  return Median(std::move(p99));
}

namespace {

uint64_t SumCounters(const MetricsSnapshot& snap, const std::string& prefix,
                     const std::string& suffix) {
  uint64_t total = 0;
  for (auto it = snap.counters.lower_bound(prefix);
       it != snap.counters.end() && it->first.compare(0, prefix.size(),
                                                      prefix) == 0;
       ++it) {
    const std::string& name = it->first;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += it->second;
    }
  }
  return total;
}

}  // namespace

uint64_t SumDelta(const MetricsSnapshot& later, const MetricsSnapshot& earlier,
                  const std::string& prefix, const std::string& suffix) {
  const uint64_t a = SumCounters(later, prefix, suffix);
  const uint64_t b = SumCounters(earlier, prefix, suffix);
  return a > b ? a - b : 0;
}

void FillRatioLayer(const MetricsSnapshot& later,
                    const MetricsSnapshot& earlier, MetricMap* layer) {
  const double hits = static_cast<double>(
      SumDelta(later, earlier, "bufferpool.shard", ".hits"));
  const double misses = static_cast<double>(
      SumDelta(later, earlier, "bufferpool.shard", ".misses"));
  (*layer)["storage.pool_hit_ratio"] = Ratio(hits, hits + misses);
  (*layer)["query.summary_skip_ratio"] =
      Ratio(static_cast<double>(later.CounterDelta(earlier, "query.summary_skips")),
            static_cast<double>(
                later.CounterDelta(earlier, "query.summary_probes")));
}

HistDelta HistogramDelta(const MetricsSnapshot& later,
                         const MetricsSnapshot& earlier,
                         const std::string& name) {
  HistDelta d;
  auto a = later.histograms.find(name);
  if (a == later.histograms.end()) return d;
  d.sum = a->second.sum;
  d.count = a->second.count;
  auto b = earlier.histograms.find(name);
  if (b != earlier.histograms.end()) {
    d.sum -= b->second.sum;
    d.count -= std::min(d.count, b->second.count);
  }
  return d;
}

std::string CounterDeltaJson(const std::string& label,
                             const MetricsSnapshot& later,
                             const MetricsSnapshot& earlier) {
  std::string out = "{\"at\": ";
  AppendJsonString(label, &out);
  out.append(", \"counters\": {");
  bool first = true;
  for (const auto& [name, value] : later.counters) {
    const uint64_t delta = later.CounterDelta(earlier, name);
    if (delta == 0) continue;
    if (!first) out.append(", ");
    first = false;
    AppendJsonString(name, &out);
    out.append(": " + std::to_string(delta));
  }
  out.append("}}");
  return out;
}

// ---------------------------------------------------------------------------
// Oracle helpers. They walk the region row by row (all axes but the last)
// with their own offset arithmetic, independent of the library's
// linearizer.

namespace {

// Calls fn(oracle_offset_cells, row_index) for each innermost-axis row of
// `region`; rows are `region.Extent(last)` cells long.
template <typename Fn>
void ForEachRow(const MInterval& domain, const MInterval& region, Fn&& fn) {
  const size_t dim = domain.dim();
  std::vector<uint64_t> stride(dim, 1);
  for (size_t i = dim - 1; i > 0; --i) {
    stride[i - 1] = stride[i] * static_cast<uint64_t>(domain.Extent(i));
  }
  std::vector<Coord> p = region.lo();
  uint64_t row = 0;
  while (true) {
    uint64_t offset = 0;
    for (size_t i = 0; i < dim; ++i) {
      offset += static_cast<uint64_t>(p[i] - domain.lo(i)) * stride[i];
    }
    fn(offset, row++);
    // Advance the odometer over axes 0..dim-2.
    size_t axis = dim - 1;
    while (axis > 0) {
      --axis;
      if (++p[axis] <= region.hi(axis)) break;
      p[axis] = region.lo(axis);
      if (axis == 0) return;
    }
    if (dim == 1) return;
  }
}

}  // namespace

std::string CompareRegion(const Array& oracle, const MInterval& region,
                          const Array& got) {
  if (got.domain() != region) {
    return "result domain " + got.domain().ToString() + " != " +
           region.ToString();
  }
  if (got.cell_size() != oracle.cell_size()) return "cell size differs";
  const size_t cell = oracle.cell_size();
  const size_t row_bytes =
      static_cast<size_t>(region.Extent(region.dim() - 1)) * cell;
  std::string error;
  ForEachRow(oracle.domain(), region, [&](uint64_t offset, uint64_t row) {
    if (!error.empty()) return;
    if (std::memcmp(oracle.data() + offset * cell,
                    got.data() + row * row_bytes, row_bytes) != 0) {
      error = "bytes differ in row " + std::to_string(row) + " of " +
              region.ToString();
    }
  });
  return error;
}

void CopyIntoOracle(const Array& src, Array* oracle) {
  const size_t cell = oracle->cell_size();
  const MInterval& region = src.domain();
  const size_t row_bytes =
      static_cast<size_t>(region.Extent(region.dim() - 1)) * cell;
  ForEachRow(oracle->domain(), region, [&](uint64_t offset, uint64_t row) {
    std::memcpy(oracle->mutable_data() + offset * cell,
                src.data() + row * row_bytes, row_bytes);
  });
}

double OracleSum(const Array& oracle, const MInterval& region) {
  const size_t cell = oracle.cell_size();
  const uint64_t row_cells =
      static_cast<uint64_t>(region.Extent(region.dim() - 1));
  double sum = 0;
  ForEachRow(oracle.domain(), region, [&](uint64_t offset, uint64_t) {
    const uint8_t* p = oracle.data() + offset * cell;
    for (uint64_t i = 0; i < row_cells; ++i) {
      uint64_t v = 0;
      if (cell == 1) {
        v = p[i];
      } else if (cell == 2) {
        uint16_t x;
        std::memcpy(&x, p + i * 2, 2);
        v = x;
      } else {
        uint32_t x;
        std::memcpy(&x, p + i * 4, 4);
        v = x;
      }
      sum += static_cast<double>(v);
    }
  });
  return sum;
}

std::vector<double> Stratified(tilestore::Random* rng, size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->Uniform(i)]);
  }
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = (static_cast<double>(order[i]) + rng->NextDouble()) /
             static_cast<double>(n);
  }
  return out;
}

uint64_t HashRegion(uint64_t h, const MInterval& region) {
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (size_t i = 0; i < region.dim(); ++i) {
    mix(static_cast<uint64_t>(region.lo(i)));
    mix(static_cast<uint64_t>(region.hi(i)));
  }
  return h;
}

void QueryTotals::FillLayer(MetricMap* layer) const {
  const double n = static_cast<double>(queries);
  if (queries == 0) return;
  (*layer)["index.t_ix_ms"] = sum.t_ix_model_ms / n;
  (*layer)["index.t_ix_wall_ms"] = sum.t_ix_measured_ms / n;
  (*layer)["index.nodes_per_query"] =
      static_cast<double>(sum.index_nodes_visited) / n;
  (*layer)["index.tiles_per_query"] =
      static_cast<double>(sum.tiles_accessed) / n;
  (*layer)["storage.t_o_ms"] = sum.t_o_model_ms / n;
  (*layer)["storage.t_o_wall_ms"] = sum.t_o_measured_ms / n;
  (*layer)["storage.pages_per_query"] =
      static_cast<double>(sum.pages_read) / n;
  (*layer)["storage.seeks_per_query"] = static_cast<double>(sum.seeks) / n;
  (*layer)["storage.read_amp"] =
      Ratio(static_cast<double>(sum.tile_bytes_read),
            static_cast<double>(sum.useful_bytes));
  (*layer)["query.t_cpu_ms"] = sum.t_cpu_model_ms / n;
  (*layer)["query.t_cpu_wall_ms"] = sum.t_cpu_measured_ms / n;
}

}  // namespace perfbench

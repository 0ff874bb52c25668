#ifndef TILESTORE_PERFBENCH_WORKLOAD_H_
#define TILESTORE_PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/array.h"
#include "core/minterval.h"
#include "obs/metrics.h"
#include "query/query_stats.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// What one timed phase measured.
struct PhaseResult {
  Outcome outcome;
  /// Every end-to-end metric except `setup_s` and `ok_frac`.
  MetricMap e2e;
  /// Per-layer metrics; filled only by a traced phase.
  MetricMap layer;
  /// Sample count behind each percentile metric (for the summary).
  std::map<std::string, uint64_t> samples;
  /// Registry counter deltas taken at the workload's boundaries, as a
  /// JSON array of {"at": ..., "counters": {...}} objects (traced only).
  std::string counter_deltas_json = "[]";
};

/// One seeded workload. Lifecycle: Setup, one or more Run phases,
/// Finish, Teardown. Setup may be repeated after Teardown (setup_s is the
/// median of several set-ups).
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed and builds the store (and server)
  /// under `dir`, which is empty.
  virtual tilestore::Status Setup(const std::string& dir) = 0;
  /// Closed-loop measurement for at least `seconds` of work; records
  /// spans into `tracer` when it is non-null.
  virtual PhaseResult Run(double seconds, Tracer* tracer) = 0;
  /// Checks that run after the timed phases (reopen and verify).
  virtual Outcome Finish() { return {}; }
  virtual void Teardown() = 0;
  /// Quantities that must repeat exactly for one seed (the self-check),
  /// plus `fingerprint`, a hash of the generated operations that must
  /// change with the seed.
  virtual MetricMap Deterministic() const = 0;
};

std::unique_ptr<Workload> MakeCubeScan(uint64_t seed);
std::unique_ptr<Workload> MakeServeMixed(uint64_t seed);
std::unique_ptr<Workload> MakeIngestUpdate(uint64_t seed);

/// Per-operation stall detector. A thread marks each operation with an
/// `Op` guard; when one stays open longer than the stall limit, or the
/// whole run exceeds its budget, the watchdog names the operation on
/// stderr, prints a failed result line and ends the process with exit
/// code 3 — a hung call can never block the caller forever.
class Watchdog {
 public:
  Watchdog(double stall_seconds, double total_seconds);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  class Op {
   public:
    explicit Op(const char* name);
    ~Op();
    Op(const Op&) = delete;
    Op& operator=(const Op&) = delete;

   private:
    int slot_;
  };

 private:
  void Loop();

  const double stall_seconds_;
  const double total_seconds_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Median of `v` (0 when empty). The workloads report rates and typical
/// latencies as the median over ~1 s windows of one run (rounds, cycles
/// or wall-clock seconds), so a transient stall on a shared machine moves
/// one window, not the run's figure.
double Median(std::vector<double> v);

/// 99th percentile (nearest rank) of a latency sample; 0 when empty.
double P99(std::vector<double> samples_ms);

/// Median over windows of the windows' p99. `groups` are the latency
/// samples of consecutive rounds or cycles; consecutive groups are merged
/// into windows of at least `min_window` samples (the tail of the run
/// joins the last window), so each window's p99 has ten samples beyond it
/// when `min_window` >= 1000. Pools every sample when the run holds fewer
/// than two windows.
double WindowedP99(const std::vector<std::vector<double>>& groups,
                   size_t min_window);

/// Delta between two snapshots of the sum of every counter whose name
/// starts with `prefix` and ends with `suffix` (e.g. the per-stripe
/// `bufferpool.shard<i>.hits`).
uint64_t SumDelta(const tilestore::obs::MetricsSnapshot& later,
                  const tilestore::obs::MetricsSnapshot& earlier,
                  const std::string& prefix, const std::string& suffix);
/// Sets `storage.pool_hit_ratio` and `query.summary_skip_ratio` from the
/// registry deltas between two snapshots.
void FillRatioLayer(const tilestore::obs::MetricsSnapshot& later,
                    const tilestore::obs::MetricsSnapshot& earlier,
                    MetricMap* layer);
/// Histogram sum and count deltas between two snapshots.
struct HistDelta {
  double sum = 0;
  uint64_t count = 0;
  double mean() const { return count == 0 ? 0 : sum / count; }
};
HistDelta HistogramDelta(const tilestore::obs::MetricsSnapshot& later,
                         const tilestore::obs::MetricsSnapshot& earlier,
                         const std::string& name);
/// `{"at": label, "counters": {name: delta, ...}}` for every counter that
/// moved between the two snapshots.
std::string CounterDeltaJson(const std::string& label,
                             const tilestore::obs::MetricsSnapshot& later,
                             const tilestore::obs::MetricsSnapshot& earlier);

/// Byte-compares `region` of `oracle` with `got` (whose domain must equal
/// `region`) without materializing the slice. Returns a message on the
/// first mismatch, empty on success.
std::string CompareRegion(const tilestore::Array& oracle,
                          const tilestore::MInterval& region,
                          const tilestore::Array& got);

/// Copies `src` into `oracle` at `src.domain()` (the oracle side of a
/// WriteRegion update).
void CopyIntoOracle(const tilestore::Array& src, tilestore::Array* oracle);

/// Sum of the cells of `region` in `oracle`, accumulated cell by cell in
/// a double — exact for the integer cell types the workloads use, so it
/// must equal the store's aggregate bit for bit.
double OracleSum(const tilestore::Array& oracle,
                 const tilestore::MInterval& region);

/// `n` values in [0, 1), one in each stratum [i/n, (i+1)/n), in seeded
/// random order. Drawing every axis of a query list this way (a Latin
/// hypercube) keeps the list's cost mix nearly the same for every seed,
/// so seeds change the regions but not the measured rates.
std::vector<double> Stratified(tilestore::Random* rng, size_t n);

/// FNV-1a over `region`'s bounds, folded into `h`.
uint64_t HashRegion(uint64_t h, const tilestore::MInterval& region);

/// Ratio guarded against a zero denominator.
inline double Ratio(double num, double den) {
  return den == 0 ? 0 : num / den;
}

/// Accumulated QueryStats of in-process queries, turned into the
/// per-layer index/storage/query metrics.
struct QueryTotals {
  tilestore::QueryStats sum;
  uint64_t queries = 0;
  void Add(const tilestore::QueryStats& s) {
    sum.Add(s);
    ++queries;
  }
  void FillLayer(MetricMap* layer) const;
};

}  // namespace perfbench

#endif  // TILESTORE_PERFBENCH_WORKLOAD_H_

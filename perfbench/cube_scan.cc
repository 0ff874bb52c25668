// cube_scan: one closed-loop caller running the paper's Table 3 query
// shapes (a-j) at seeded positions over the Section 6.1 sales cube,
// stored with directional tiling (Dir64K2P) under a 1024-page (4 MiB)
// buffer pool — about a quarter of the 16.7 MiB cube.

#include "common/bench_util.h"
#include "common/random.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "tiling/directional.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace tilestore;  // NOLINT(build/namespaces)

constexpr size_t kPoolPages = 1024;
constexpr int kRepsPerRound = 16;  // positions per shape and round

// Table 3 shapes as extents per axis (days, products, stores); 0 is '*',
// the whole axis.
struct Shape {
  const char* name;
  Coord extent[3];
};
constexpr Shape kShapes[] = {
    {"a", {28, 15, 8}}, {"b", {28, 0, 8}},  {"c", {28, 15, 0}},
    {"d", {0, 15, 8}},  {"e", {28, 0, 0}},  {"f", {0, 0, 8}},
    {"g", {0, 15, 0}},  {"h", {184, 0, 0}}, {"i", {365, 0, 0}},
    {"j", {7, 0, 0}},
};

struct ScanQuery {
  const char* shape;
  MInterval region;
  bool aggregate = false;
  double expected_sum = 0;  // aggregate queries only
};

class CubeScan : public Workload {
 public:
  explicit CubeScan(uint64_t seed) : seed_(seed) {}

  Status Setup(const std::string& dir) override {
    bench::SalesCubeSpec spec;
    cube_ = bench::MakeSalesCube(spec, seed_);
    MakeRound(spec.Domain());

    MDDStoreOptions options;
    options.pool_pages = kPoolPages;
    auto created = MDDStore::Create(dir + "/cube.db", options);
    if (!created.ok()) return created.status();
    store_ = std::move(created).MoveValue();
    const obs::MetricsSnapshot before = store_->metrics()->Snapshot();
    auto object = store_->CreateMDD("sales", cube_.domain(), cube_.cell_type());
    if (!object.ok()) return object.status();
    object_ = object.value();
    DirectionalTiling tiling({spec.Months(), spec.Districts()}, 64 * 1024);
    auto tiles = tiling.ComputeTiling(cube_.domain(), cube_.cell_size());
    if (!tiles.ok()) return tiles.status();
    Status st = object_->Load(cube_, tiles.value());
    if (st.ok()) st = store_->Save();
    if (!st.ok()) return st;
    const obs::MetricsSnapshot after = store_->metrics()->Snapshot();
    const double user = static_cast<double>(cube_.size_bytes());
    write_amp_ =
        static_cast<double>(after.CounterDelta(before, "pagefile.bytes_written") +
                            after.CounterDelta(before, "wal.bytes")) /
        user;
    space_amp_ = static_cast<double>(store_->page_file()->page_count() *
                                     store_->page_file()->page_size()) /
                 user;
    return Status::OK();
  }

  PhaseResult Run(double seconds, Tracer* tracer) override {
    PhaseResult r;
    RangeQueryExecutor exec(store_.get());
    QueryTotals totals;
    std::vector<double> latency_ms;
    // Per-round rates and median latencies; the run reports their medians.
    std::vector<double> round_qps, round_mib_per_s, round_p50;
    QueryTotals first_round;
    std::string deltas = "[";
    const obs::MetricsSnapshot phase_before = store_->metrics()->Snapshot();
    const Clock::time_point start = Clock::now();
    for (int round = 0;
         round == 0 ||
         std::chrono::duration<double>(Clock::now() - start).count() < seconds;
         ++round) {
      const obs::MetricsSnapshot round_before =
          tracer ? store_->metrics()->Snapshot() : obs::MetricsSnapshot();
      double busy_ms = 0;
      double scanned_bytes = 0;
      std::vector<double> round_latency;
      for (size_t k = 0; k < round_.size(); ++k) {
        const ScanQuery& q = round_[k];
        // Each round starts from an empty pool and a reset disk model, so
        // every round repeats the same page traffic and model times.
        exec.mutable_options()->cold = (k == 0);
        QueryStats stats;
        Result<Array> array = Status::Internal("not executed");
        Result<double> sum = 0.0;
        double ms = 0;
        {
          Watchdog::Op op("cube_scan query");
          const uint64_t request = tracer ? tracer->NextRequestId() : 0;
          SpanScope root(tracer, "cube_scan.query", request);
          SpanScope call(tracer,
                         q.aggregate ? "query.aggregate" : "query.execute",
                         request, root.id());
          if (q.aggregate) {
            sum = exec.ExecuteAggregate(object_, q.region, AggregateOp::kSum,
                                        &stats);
          } else {
            array = exec.Execute(object_, q.region, &stats);
          }
          ms = call.End();
          call.Attr("tiles", static_cast<double>(stats.tiles_accessed));
          call.Attr("pages", static_cast<double>(stats.pages_read));
          call.Attr("seeks", static_cast<double>(stats.seeks));
          call.Attr("index_nodes",
                    static_cast<double>(stats.index_nodes_visited));
          call.Attr("t_ix_model_ms", stats.t_ix_model_ms);
          call.Attr("t_o_model_ms", stats.t_o_model_ms);
          call.Attr("t_cpu_model_ms", stats.t_cpu_model_ms);
        }
        // Oracle check, outside the timed spans.
        const std::string what = std::string(q.aggregate ? "sum" : "range") +
                                 " shape " + q.shape + " " +
                                 q.region.ToString();
        if (q.aggregate) {
          if (!sum.ok()) {
            r.outcome.Fail(what + ": " + sum.status().ToString());
            continue;
          }
          if (sum.value() != q.expected_sum) {
            r.outcome.Fail(what + ": sum " + std::to_string(sum.value()) +
                           " != oracle " + std::to_string(q.expected_sum));
            continue;
          }
        } else {
          if (!array.ok()) {
            r.outcome.Fail(what + ": " + array.status().ToString());
            continue;
          }
          const std::string diff = CompareRegion(cube_, q.region, *array);
          if (!diff.empty()) {
            r.outcome.Fail(what + ": " + diff);
            continue;
          }
        }
        r.outcome.Ok();
        latency_ms.push_back(ms);
        round_latency.push_back(ms);
        busy_ms += ms;
        scanned_bytes += static_cast<double>(q.region.CellCountOrDie() *
                                             cube_.cell_size());
        totals.Add(stats);
        if (round == 0) first_round.Add(stats);
      }
      round_qps.push_back(
          Ratio(static_cast<double>(round_latency.size()), busy_ms / 1e3));
      round_mib_per_s.push_back(
          Ratio(scanned_bytes / (1024.0 * 1024.0), busy_ms / 1e3));
      round_p50.push_back(Median(std::move(round_latency)));
      if (tracer) {
        if (round > 0) deltas.append(",\n");
        deltas.append(CounterDeltaJson("round " + std::to_string(round),
                                       store_->metrics()->Snapshot(),
                                       round_before));
      }
    }
    const obs::MetricsSnapshot phase_after = store_->metrics()->Snapshot();
    r.counter_deltas_json = deltas + "]";

    const double model_ms =
        Ratio(first_round.sum.total_cpu_model_ms(),
              static_cast<double>(first_round.queries));
    r.samples["p50_ms"] = r.samples["p99_ms"] = latency_ms.size();
    r.samples["windows"] = round_qps.size();
    r.e2e["ops_per_s"] = Median(round_qps);
    r.e2e["p50_ms"] = Median(round_p50);
    r.e2e["p99_ms"] = P99(std::move(latency_ms));
    r.e2e["model_ms"] = model_ms;
    r.e2e["mib_per_s"] = Median(round_mib_per_s);
    r.e2e["write_amp"] = write_amp_;
    r.e2e["space_amp"] = space_amp_;

    if (det_.empty()) {
      det_["model_ms"] = model_ms;
      det_["pages_per_round"] = static_cast<double>(first_round.sum.pages_read);
      det_["seeks_per_round"] = static_cast<double>(first_round.sum.seeks);
      det_["index_nodes_per_round"] =
          static_cast<double>(first_round.sum.index_nodes_visited);
      det_["tiles_per_round"] =
          static_cast<double>(first_round.sum.tiles_accessed);
    }

    if (tracer) {
      totals.FillLayer(&r.layer);
      const auto self = tracer->SelfTimes();
      r.layer["query.execute_ms"] = MeanSelfMs(self, "query.execute");
      r.layer["query.aggregate_ms"] = MeanSelfMs(self, "query.aggregate");
      FillRatioLayer(phase_after, phase_before, &r.layer);
    }
    return r;
  }

  void Teardown() override {
    store_.reset();
    object_ = nullptr;
  }

  MetricMap Deterministic() const override {
    MetricMap d = det_;
    d["write_amp"] = write_amp_;
    d["space_amp"] = space_amp_;
    d["fingerprint"] = fingerprint_;
    return d;
  }

 private:
  // The fixed query list every round runs: each Table 3 shape at
  // kRepsPerRound seeded positions (stratified per axis), alternating Execute and
  // ExecuteAggregate so every shape runs both ways.
  void MakeRound(const MInterval& domain) {
    Random rng(seed_ ^ 0x5ca11ab1eull);
    // positions[shape][axis][rep], stratified per axis.
    std::vector<std::vector<std::vector<double>>> positions;
    for (size_t s = 0; s < std::size(kShapes); ++s) {
      positions.emplace_back();
      for (size_t axis = 0; axis < 3; ++axis) {
        positions.back().push_back(Stratified(&rng, kRepsPerRound));
      }
    }
    round_.clear();
    uint64_t h = 1469598103934665603ull;
    for (int rep = 0; rep < kRepsPerRound; ++rep) {
      for (size_t s = 0; s < std::size(kShapes); ++s) {
        std::vector<Coord> lo(3), hi(3);
        for (size_t axis = 0; axis < 3; ++axis) {
          const Coord full = domain.Extent(axis);
          const Coord extent =
              kShapes[s].extent[axis] == 0 ? full : kShapes[s].extent[axis];
          const double u = positions[s][axis][static_cast<size_t>(rep)];
          lo[axis] = domain.lo(axis) +
                     static_cast<Coord>(u * static_cast<double>(full - extent + 1));
          hi[axis] = lo[axis] + extent - 1;
        }
        ScanQuery q;
        q.shape = kShapes[s].name;
        q.region = MInterval::Create(lo, hi).value();
        q.aggregate = (s + static_cast<size_t>(rep)) % 2 == 1;
        if (q.aggregate) q.expected_sum = OracleSum(cube_, q.region);
        h = HashRegion(h, q.region);
        round_.push_back(std::move(q));
      }
    }
    fingerprint_ = static_cast<double>(h >> 11);
  }

  const uint64_t seed_;
  Array cube_;
  std::vector<ScanQuery> round_;
  std::unique_ptr<MDDStore> store_;
  MDDObject* object_ = nullptr;
  double write_amp_ = 0;
  double space_amp_ = 0;
  double fingerprint_ = 0;
  MetricMap det_;
};

}  // namespace

std::unique_ptr<Workload> MakeCubeScan(uint64_t seed) {
  return std::make_unique<CubeScan>(seed);
}

}  // namespace perfbench

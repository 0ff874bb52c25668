// ingest_update: one caller on a WAL-on store. Each cycle loads a fresh
// copy of the Section 6.2 animation (121x160x120 RGB, 6.8 MiB) through
// areas-of-interest tiling over the head and body areas, applies a seeded
// stream of small WriteRegion updates (each its own autocommitted
// transaction, each read back), then drops the previous copy and saves,
// so freed pages are reused and automatic checkpoints fire. Finish
// checkpoints, closes, reopens and verifies the last copy.

#include "common/bench_util.h"
#include "common/random.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "tiling/areas_of_interest.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace tilestore;  // NOLINT(build/namespaces)

constexpr size_t kUpdatesPerCycle = 96;
// write_amp, space_amp and model_ms are taken over a fixed stretch of the
// first timed phase, so they repeat exactly for one seed: kMeasuredCycles
// cycles after kWarmupCycles, once page reuse has set in.
constexpr int kWarmupCycles = 1;
constexpr int kMeasuredCycles = 6;
// Updates per p99 window: ten samples beyond each window's p99.
constexpr size_t kP99WindowUpdates = 1000;

class IngestUpdate : public Workload {
 public:
  explicit IngestUpdate(uint64_t seed)
      : seed_(seed),
        tiling_({bench::AnimationHeadArea(), bench::AnimationBodyArea()},
                64 * 1024) {}

  Status Setup(const std::string& dir) override {
    anim_ = bench::MakeAnimation(seed_);
    path_ = dir + "/ingest.db";
    auto created = MDDStore::Create(path_);
    if (!created.ok()) return created.status();
    store_ = std::move(created).MoveValue();
    cycle_ = 0;
    // The first copy, so every timed cycle has a predecessor to drop.
    auto spec = tiling_.ComputeTiling(anim_.domain(), anim_.cell_size());
    if (!spec.ok()) return spec.status();
    auto object = store_->CreateMDD(Name(0), anim_.domain(), anim_.cell_type());
    if (!object.ok()) return object.status();
    if (Status st = object.value()->Load(anim_, spec.value()); !st.ok()) {
      return st;
    }
    oracle_ = anim_;
    return store_->Save();
  }

  PhaseResult Run(double seconds, Tracer* tracer) override {
    PhaseResult r;
    obs::MetricsRegistry* m = store_->metrics();
    obs::Counter* wal_syncs = m->counter("wal.syncs");
    obs::Counter* wal_bytes = m->counter("wal.bytes");
    obs::Counter* page_writes = m->counter("pagefile.writes");
    RangeQueryExecutor exec(store_.get());

    // Update latencies per cycle; per-cycle rates and median latencies.
    // The run reports the medians over cycles, and for p99 the median over
    // windows of kP99WindowUpdates updates.
    std::vector<std::vector<double>> update_ms;
    std::vector<double> cycle_ops, cycle_p50, cycle_mib_per_s;
    uint64_t updates = 0;
    QueryTotals readbacks;
    double update_syncs = 0, update_wal_bytes = 0, update_pages = 0;
    double update_user_bytes = 0;
    const bool first_phase = det_.empty();
    obs::MetricsSnapshot prefix_before;
    double prefix_user_bytes = 0;
    QueryTotals prefix_readbacks;
    std::string deltas = "[";
    const obs::MetricsSnapshot phase_before = m->Snapshot();
    const Clock::time_point start = Clock::now();
    for (int done = 0;
         done < (first_phase ? kWarmupCycles + kMeasuredCycles : 1) ||
         std::chrono::duration<double>(Clock::now() - start).count() < seconds;
         ++done) {
      const bool in_prefix = first_phase && done >= kWarmupCycles &&
                             done < kWarmupCycles + kMeasuredCycles;
      if (first_phase && done == kWarmupCycles) prefix_before = m->Snapshot();
      const obs::MetricsSnapshot cycle_before =
          tracer ? m->Snapshot() : obs::MetricsSnapshot();
      const int k = ++cycle_;
      const uint64_t request = tracer ? tracer->NextRequestId() : 0;
      SpanScope cycle(tracer, "ingest.cycle", request);
      double busy_ms = 0;
      double load_ms = 0;
      std::vector<double> cycle_update_ms;

      // 1. Tile and load a fresh copy.
      Result<TilingSpec> spec = Status::Internal("not computed");
      double ms = 0;
      {
        Watchdog::Op op("ingest_update tiling");
        SpanScope span(tracer, "tiling.compute", request, cycle.id());
        spec = tiling_.ComputeTiling(anim_.domain(), anim_.cell_size());
        ms = span.End();
      }
      load_ms += ms;
      busy_ms += ms;
      if (!spec.ok()) {
        r.outcome.Fail("ComputeTiling: " + spec.status().ToString());
        break;
      }
      r.outcome.Ok();
      Status st;
      MDDObject* object = nullptr;
      {
        Watchdog::Op op("ingest_update load");
        SpanScope span(tracer, "mdd.load", request, cycle.id());
        auto created =
            store_->CreateMDD(Name(k), anim_.domain(), anim_.cell_type());
        st = created.status();
        if (created.ok()) {
          object = created.value();
          st = object->Load(anim_, spec.value());
        }
        ms = span.End();
      }
      load_ms += ms;
      busy_ms += ms;
      if (!st.ok()) {
        r.outcome.Fail("Load " + Name(k) + ": " + st.ToString());
        break;
      }
      r.outcome.Ok();
      if (in_prefix) prefix_user_bytes += static_cast<double>(anim_.size_bytes());
      oracle_ = anim_;

      // 2. Small updates, each read back.
      for (const Array& update : MakeUpdates(k)) {
        const double user = static_cast<double>(update.size_bytes());
        const uint64_t syncs0 = wal_syncs->Value();
        const uint64_t wal0 = wal_bytes->Value();
        const uint64_t pages0 = page_writes->Value();
        {
          Watchdog::Op op("ingest_update write_region");
          SpanScope span(tracer, "mdd.write_region", request, cycle.id());
          st = object->WriteRegion(update);
          ms = span.End();
          span.Attr("user_bytes", user);
        }
        if (!st.ok()) {
          r.outcome.Fail("WriteRegion " + update.domain().ToString() + ": " +
                         st.ToString());
          continue;
        }
        r.outcome.Ok();
        cycle_update_ms.push_back(ms);
        busy_ms += ms;
        ++updates;
        update_syncs += static_cast<double>(wal_syncs->Value() - syncs0);
        update_wal_bytes += static_cast<double>(wal_bytes->Value() - wal0);
        update_pages += static_cast<double>(page_writes->Value() - pages0);
        update_user_bytes += user;
        if (in_prefix) prefix_user_bytes += user;
        CopyIntoOracle(update, &oracle_);

        QueryStats stats;
        Result<Array> back = Status::Internal("not executed");
        {
          Watchdog::Op op("ingest_update read-back");
          SpanScope span(tracer, "query.execute", request, cycle.id());
          back = exec.Execute(object, update.domain(), &stats);
          busy_ms += span.End();
        }
        const std::string diff =
            back.ok() ? CompareRegion(oracle_, update.domain(), *back)
                      : back.status().ToString();
        if (!diff.empty()) {
          r.outcome.Fail("read-back " + update.domain().ToString() + ": " +
                         diff);
          continue;
        }
        r.outcome.Ok();
        readbacks.Add(stats);
        if (in_prefix) prefix_readbacks.Add(stats);
      }

      // 3. Drop the previous copy; the save frees its pages for reuse.
      {
        Watchdog::Op op("ingest_update drop");
        SpanScope span(tracer, "mdd.drop", request, cycle.id());
        st = store_->DropMDD(Name(k - 1));
        if (st.ok()) st = store_->Save();
        busy_ms += span.End();
      }
      if (!st.ok()) {
        r.outcome.Fail("DropMDD/Save " + Name(k - 1) + ": " + st.ToString());
        break;
      }
      r.outcome.Ok();
      cycle.End();
      cycle_ops.push_back(Ratio(static_cast<double>(cycle_update_ms.size()),
                                busy_ms / 1e3));
      cycle_mib_per_s.push_back(Ratio(
          static_cast<double>(anim_.size_bytes()) / (1024.0 * 1024.0),
          load_ms / 1e3));
      cycle_p50.push_back(Median(cycle_update_ms));
      update_ms.push_back(std::move(cycle_update_ms));

      cycle.Attr("file_pages",
                 static_cast<double>(store_->page_file()->page_count()));
      if (in_prefix && done + 1 == kWarmupCycles + kMeasuredCycles) {
        const obs::MetricsSnapshot now = m->Snapshot();
        det_["write_amp"] =
            static_cast<double>(now.CounterDelta(prefix_before,
                                                 "pagefile.bytes_written") +
                                now.CounterDelta(prefix_before, "wal.bytes")) /
            prefix_user_bytes;
        det_["space_amp"] =
            static_cast<double>(store_->page_file()->page_count() *
                                store_->page_file()->page_size()) /
            static_cast<double>(anim_.size_bytes());
        det_["model_ms"] =
            Ratio(prefix_readbacks.sum.total_cpu_model_ms(),
                  static_cast<double>(prefix_readbacks.queries));
        det_["prefix_pages_written"] = static_cast<double>(
            now.CounterDelta(prefix_before, "pagefile.writes"));
        det_["prefix_wal_bytes"] =
            static_cast<double>(now.CounterDelta(prefix_before, "wal.bytes"));
      }
      if (tracer) {
        if (done > 0) deltas.append(",\n");
        deltas.append(CounterDeltaJson("cycle " + std::to_string(k),
                                       m->Snapshot(), cycle_before));
      }
    }
    const obs::MetricsSnapshot phase_after = m->Snapshot();
    r.counter_deltas_json = deltas + "]";

    r.samples["p50_ms"] = r.samples["p99_ms"] = updates;
    r.samples["windows"] = cycle_ops.size();
    r.e2e["ops_per_s"] = Median(cycle_ops);
    r.e2e["p50_ms"] = Median(cycle_p50);
    r.e2e["p99_ms"] = WindowedP99(update_ms, kP99WindowUpdates);
    r.e2e["mib_per_s"] = Median(cycle_mib_per_s);
    r.e2e["model_ms"] = det_["model_ms"];
    r.e2e["write_amp"] = det_["write_amp"];
    r.e2e["space_amp"] = det_["space_amp"];

    if (tracer) {
      readbacks.FillLayer(&r.layer);
      const auto self = tracer->SelfTimes();
      r.layer["query.execute_ms"] = MeanSelfMs(self, "query.execute");
      r.layer["tiling.compute_ms"] = MeanSelfMs(self, "tiling.compute");
      r.layer["mdd.load_ms"] = MeanSelfMs(self, "mdd.load");
      r.layer["mdd.write_region_ms"] = MeanSelfMs(self, "mdd.write_region");
      const double n = static_cast<double>(updates);
      r.layer["wal.fsync_ms"] =
          HistogramDelta(phase_after, phase_before, "wal.fsync_ms").mean();
      r.layer["wal.fsyncs_per_update"] = Ratio(update_syncs, n);
      r.layer["wal.bytes_per_user_byte"] =
          Ratio(update_wal_bytes, update_user_bytes);
      r.layer["pagefile.pages_written_per_update"] = Ratio(update_pages, n);
      r.layer["txn.checkpoint_ms"] =
          HistogramDelta(phase_after, phase_before, "txn.checkpoint_ms").mean();
      FillRatioLayer(phase_after, phase_before, &r.layer);
    }
    return r;
  }

  Outcome Finish() override {
    Outcome out;
    Watchdog::Op op("ingest_update reopen");
    Status st = store_->Save();
    if (st.ok()) st = store_->Checkpoint();
    if (!st.ok()) {
      out.Fail("final checkpoint: " + st.ToString());
      return out;
    }
    store_.reset();
    auto opened = MDDStore::Open(path_);
    if (!opened.ok()) {
      out.Fail("reopen: " + opened.status().ToString());
      return out;
    }
    store_ = std::move(opened).MoveValue();
    auto object = store_->GetMDD(Name(cycle_));
    if (!object.ok()) {
      out.Fail("reopen: " + object.status().ToString());
      return out;
    }
    RangeQueryExecutor exec(store_.get());
    auto all = exec.Execute(object.value(), anim_.domain());
    const std::string diff =
        all.ok() ? CompareRegion(oracle_, anim_.domain(), *all)
                 : all.status().ToString();
    if (!diff.empty()) {
      out.Fail("after reopen " + Name(cycle_) + ": " + diff);
    } else {
      out.Ok();
    }
    return out;
  }

  void Teardown() override { store_.reset(); }

  MetricMap Deterministic() const override {
    MetricMap d = det_;
    // The first cycle's update boxes identify the generated stream.
    uint64_t h = 1469598103934665603ull;
    for (const Array& update : MakeUpdates(1)) {
      h = HashRegion(h, update.domain());
    }
    d["fingerprint"] = static_cast<double>(h >> 11);
    return d;
  }

 private:
  static std::string Name(int k) { return "anim" + std::to_string(k); }

  // Cycle k's updates: small seeded boxes (1-4 frames x 4-32 x 4-32
  // pixels) of random RGB cells inside the animation's domain, with
  // extents and positions stratified over the cycle.
  std::vector<Array> MakeUpdates(int k) const {
    Random rng(seed_ * 1000003ull + static_cast<uint64_t>(k));
    const Coord max_extent[3] = {4, 32, 32};
    const Coord min_extent[3] = {1, 4, 4};
    std::vector<std::vector<double>> extent_u, position_u;
    for (size_t axis = 0; axis < 3; ++axis) {
      extent_u.push_back(Stratified(&rng, kUpdatesPerCycle));
      position_u.push_back(Stratified(&rng, kUpdatesPerCycle));
    }
    std::vector<Array> updates;
    for (size_t u = 0; u < kUpdatesPerCycle; ++u) {
      std::vector<Coord> lo(3), hi(3);
      for (size_t axis = 0; axis < 3; ++axis) {
        const Coord extent =
            min_extent[axis] +
            static_cast<Coord>(extent_u[axis][u] *
                               static_cast<double>(max_extent[axis] -
                                                   min_extent[axis] + 1));
        const Coord span = anim_.domain().Extent(axis) - extent + 1;
        lo[axis] = anim_.domain().lo(axis) +
                   static_cast<Coord>(position_u[axis][u] *
                                      static_cast<double>(span));
        hi[axis] = lo[axis] + extent - 1;
      }
      Array update =
          Array::Create(MInterval::Create(lo, hi).value(), anim_.cell_type())
              .value();
      uint8_t* bytes = update.mutable_data();
      for (size_t i = 0; i < update.size_bytes(); ++i) {
        bytes[i] = static_cast<uint8_t>(rng.Uniform(256));
      }
      updates.push_back(std::move(update));
    }
    return updates;
  }

  const uint64_t seed_;
  const AreasOfInterestTiling tiling_;
  Array anim_;
  Array oracle_;  // the latest copy's expected contents
  std::string path_;
  std::unique_ptr<MDDStore> store_;
  int cycle_ = 0;
  MetricMap det_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestUpdate(uint64_t seed) {
  return std::make_unique<IngestUpdate>(seed);
}

}  // namespace perfbench

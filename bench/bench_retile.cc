// Online re-tiling A/B (DESIGN.md §12): a shifting-hotspot workload runs
// against a deliberately hostile coarse tiling, the re-tiler closes the
// observe → advise → migrate loop, and warm query throughput is measured
// before and after each migration. The loop is exercised twice — the
// hotspot then *moves*, and a second migration adapts the tiling again —
// demonstrating that the evidence ring tracks drift.
//
// Correctness guard: the full-domain bytes are compared after every
// migration; a migration that changes a single cell fails the bench.
//
// Gate: each migration must cut the hotspot query's deterministic warm
// model cost (`ReadPathSample::model_ms`) by at least kMinModelGain,
// otherwise the bench exits 1. Wall-clock qps is printed for information
// only; at µs per query it is too noisy to gate on.
//
// Output: human-readable tables, plus BENCH_retile.json holding the
// before/after throughput samples and the store's metrics snapshot (the
// retile.* counters embedded for the perf trajectory).
//
// Flags: --smoke     reduced workload for CI (smaller object, fewer
//                    queries).
//        --queries=N minimum warm queries per measurement.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "query/range_query.h"
#include "tiling/retiler.h"

namespace tilestore {
namespace bench {
namespace {

/// Smallest accepted before/after `model_ms` ratio per migration. The
/// ratios are deterministic: 1.47x and 1.75x on the full run, 2.45x and
/// 2.24x on --smoke.
constexpr double kMinModelGain = 1.4;

TilingSpec Strips(Coord lo, Coord hi, Coord cells) {
  TilingSpec spec;
  for (Coord c = lo; c <= hi; c += cells) {
    spec.push_back(MInterval({{c, std::min<Coord>(c + cells - 1, hi)}}));
  }
  return spec;
}

std::vector<uint8_t> FullBytes(MDDStore* store, MDDObject* object) {
  RangeQueryExecutor executor(store);
  Array result =
      executor.Execute(object, object->definition_domain()).MoveValue();
  return std::vector<uint8_t>(result.data(),
                              result.data() + result.size_bytes());
}

int Main(int argc, char** argv) {
  const bool smoke = FlagBool(argc, argv, "smoke");
  const int min_queries = FlagInt(argc, argv, "queries", smoke ? 8 : 40);

  // 1 MiB of int32 cells (256 KiB in smoke) under a hostile tiling: 64 KiB
  // strips, so every hotspot query drags in a whole coarse tile.
  const Coord cells = smoke ? 65536 : 262144;
  const Coord coarse = 16384;   // 64 KiB tiles
  const Coord hot_cells = 2048; // 8 KiB hotspot boxes
  const MInterval domain({{0, cells - 1}});
  const MInterval hot1({{0, hot_cells - 1}});
  const MInterval hot2({{cells - hot_cells, cells - 1}});

  const std::string path = "/tmp/tilestore_bench_retile.db";
  (void)RemoveFile(path);
  MDDStoreOptions options;
  options.pool_pages = 16384;
  auto store = MDDStore::Create(path, options).MoveValue();
  MDDObject* object =
      store->CreateMDD("hot", domain, CellType::Of(CellTypeId::kInt32))
          .value();
  Array data = Array::Create(domain, object->cell_type()).value();
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<int32_t>(p, static_cast<int32_t>(p[0]) * 13 + 5);
  });
  if (!object->Load(data, Strips(0, cells - 1, coarse)).ok()) return 1;
  const std::vector<uint8_t> reference = FullBytes(store.get(), object);

  std::printf("=== online re-tiling: shifting-hotspot A/B ===\n");
  std::printf("object: %lld int32 cells, hostile %lld-cell strips "
              "(%zu tiles)\n",
              static_cast<long long>(cells), static_cast<long long>(coarse),
              object->tile_count());

  Retiler retiler(store.get());
  std::vector<ReadPathSample> samples;
  const std::vector<int> level = {1};

  // Phase 1: hotspot at the low end. The warm measurement doubles as the
  // observe phase — the executor records every query region.
  std::vector<ReadPathSample> before1 =
      MeasureWarmReadPath(store.get(), object, hot1, level, min_queries,
                          "bench_retile", "hotspot1_before_retile");
  if (before1.empty()) return 1;
  Result<RetileReport> report1 = retiler.RetileNow("hot");
  if (!report1.ok() || !report1->migrated) {
    std::fprintf(stderr, "retile: first migration did not happen: %s\n",
                 report1.ok() ? report1->rationale.c_str()
                             : report1.status().message().c_str());
    return 1;
  }
  object = store->GetMDD("hot").value();
  if (FullBytes(store.get(), object) != reference) {
    std::fprintf(stderr, "retile: migration 1 changed object bytes!\n");
    return 1;
  }
  std::printf("\nmigration 1: kind=%s gain=%.2fx steps=%llu tiles %llu -> "
              "%llu (%s)\n",
              report1->kind.c_str(), report1->predicted_gain,
              static_cast<unsigned long long>(report1->steps),
              static_cast<unsigned long long>(report1->tiles_before),
              static_cast<unsigned long long>(report1->tiles_after),
              report1->rationale.c_str());
  std::vector<ReadPathSample> after1 =
      MeasureWarmReadPath(store.get(), object, hot1, level, min_queries,
                          "bench_retile", "hotspot1_after_retile");
  if (after1.empty()) return 1;

  // Phase 2: the hotspot drifts to the high end — still coarse there, so
  // the loop must adapt again.
  std::vector<ReadPathSample> before2 =
      MeasureWarmReadPath(store.get(), object, hot2, level, min_queries,
                          "bench_retile", "hotspot2_before_retile");
  if (before2.empty()) return 1;
  Result<RetileReport> report2 = retiler.RetileNow("hot");
  if (!report2.ok() || !report2->migrated) {
    std::fprintf(stderr, "retile: second migration did not happen: %s\n",
                 report2.ok() ? report2->rationale.c_str()
                             : report2.status().message().c_str());
    return 1;
  }
  object = store->GetMDD("hot").value();
  if (FullBytes(store.get(), object) != reference) {
    std::fprintf(stderr, "retile: migration 2 changed object bytes!\n");
    return 1;
  }
  std::printf("migration 2: kind=%s gain=%.2fx steps=%llu tiles %llu -> "
              "%llu\n",
              report2->kind.c_str(), report2->predicted_gain,
              static_cast<unsigned long long>(report2->steps),
              static_cast<unsigned long long>(report2->tiles_before),
              static_cast<unsigned long long>(report2->tiles_after));
  std::vector<ReadPathSample> after2 =
      MeasureWarmReadPath(store.get(), object, hot2, level, min_queries,
                          "bench_retile", "hotspot2_after_retile");
  if (after2.empty()) return 1;

  samples.insert(samples.end(), before1.begin(), before1.end());
  samples.insert(samples.end(), after1.begin(), after1.end());
  samples.insert(samples.end(), before2.begin(), before2.end());
  samples.insert(samples.end(), after2.begin(), after2.end());
  std::printf("\n");
  PrintReadPathSamples(samples);
  const double speedup1 = before1[0].queries_per_sec > 0
                              ? after1[0].queries_per_sec /
                                    before1[0].queries_per_sec
                              : 0.0;
  const double speedup2 = before2[0].queries_per_sec > 0
                              ? after2[0].queries_per_sec /
                                    before2[0].queries_per_sec
                              : 0.0;
  const double model_gain1 = before1[0].model_ms / after1[0].model_ms;
  const double model_gain2 = before2[0].model_ms / after2[0].model_ms;
  std::printf("\nwarm hotspot model_ms before/after migration 1: %.2fx\n",
              model_gain1);
  std::printf("warm hotspot model_ms before/after migration 2: %.2fx\n",
              model_gain2);
  std::printf("gate: >= %.2fx each — the hotspot now fetches its own small "
              "tiles instead of dragging whole %lld-cell strips in.\n",
              kMinModelGain, static_cast<long long>(coarse));
  std::printf("(information only) warm hotspot qps after/before: "
              "%.2fx, %.2fx\n",
              speedup1, speedup2);

  // Snapshot while the store is alive: carries the retile.* counters of
  // both migrations alongside the query/pool/disk activity.
  const obs::MetricsSnapshot snapshot = store->metrics()->Snapshot();
  store.reset();
  (void)RemoveFile(path);

  if (!WriteReadPathJson("BENCH_retile.json", "bench_retile", samples)) {
    std::fprintf(stderr, "retile: cannot write BENCH_retile.json\n");
    return 1;
  }
  if (!WriteMetricsSnapshotJson("BENCH_retile.json", "bench_retile",
                                "metrics_snapshot", snapshot)) {
    std::fprintf(stderr, "retile: cannot merge metrics snapshot\n");
    return 1;
  }
  std::printf("merged into BENCH_retile.json\n");
  if (!(model_gain1 >= kMinModelGain && model_gain2 >= kMinModelGain)) {
    std::fprintf(stderr,
                 "retile: model_ms gain %.2fx / %.2fx is below the %.2fx "
                 "gate\n",
                 model_gain1, model_gain2, kMinModelGain);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tilestore

int main(int argc, char** argv) {
  return tilestore::bench::Main(argc, argv);
}

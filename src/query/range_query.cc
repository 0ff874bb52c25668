#include "query/range_query.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "core/filter.h"
#include "core/region.h"
#include "storage/compression.h"
#include "storage/io_scheduler.h"
#include "storage/tile_cache.h"

namespace tilestore {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Cells of `a` ∩ `b` (0 when disjoint), without building the intersection.
uint64_t OverlapCells(const MInterval& a, const MInterval& b) {
  uint64_t cells = 1;
  for (size_t i = 0; i < a.dim(); ++i) {
    const Coord lo = std::max(a.lo(i), b.lo(i));
    const Coord hi = std::min(a.hi(i), b.hi(i));
    if (lo > hi) return 0;
    cells *= static_cast<uint64_t>(hi - lo + 1);
  }
  return cells;
}

}  // namespace

namespace query_pipeline {

// How the consumer treats one fetched tile. Skipped tiles never reach it.
enum class TileClass : uint8_t {
  kAcceptAll,  // every cell matches: plain copy / unfiltered fold
  kInspect,    // the summary cannot decide: filter cell by cell
  kBackfill,   // no summary yet: filter cell by cell, then summarize
};

// The plan step's output: which tiles to fetch and how to treat each.
// With no predicate every index hit is accept-all.
struct Plan {
  MDDObject* object = nullptr;
  MInterval region;                       // resolved query region
  const ValuePredicate* pred = nullptr;   // null: no predicate
  std::vector<TileEntry> tiles;           // to fetch, ascending BLOB id
  std::vector<TileClass> classes;         // parallel to `tiles`
  uint64_t covered_cells = 0;  // region cells in any index hit, skips too
  TileSummaryIndex* summaries = nullptr;
  obs::TraceRing* trace = nullptr;
  uint64_t trace_id = 0;

  // Lazy backfill: an unsummarized tile is decoded anyway, so summarizing
  // it now lets the next filtered query classify it outright.
  void Backfill(size_t i, const Tile& tile) const {
    std::optional<TileSummary> summary = BuildTileSummary(
        object->cell_type(), tile.data(), tile.domain().CellCountOrDie(),
        object->default_cell().data());
    if (summary.has_value()) {
      summaries->Put(object->cache_id(), tiles[i].blob, *summary);
    }
  }
};

// What the fetched tiles become. `Prepare` runs before the fetch and
// `Finish` after it; `Consume` and `ConsumeEncoded` run once per fetched
// tile, in BLOB order. All of them run on the calling thread.
class Consumer {
 public:
  virtual ~Consumer() = default;
  virtual Status Prepare(const Plan& plan) = 0;
  // Whether a tile of this class stored RLE and wholly inside the region
  // is handed over as its compressed stream instead of decoded.
  virtual bool TakesEncoded(TileClass cls) const = 0;
  virtual Status ConsumeEncoded(size_t i,
                                const std::vector<uint8_t>& stream) = 0;
  // `part` is the tile's intersection with the query region.
  virtual Status Consume(size_t i, const Tile& tile, const MInterval& part) = 0;
  virtual Status Finish() = 0;

  uint64_t useful_bytes = 0;
  uint64_t result_bytes = 0;
};

namespace {

// Materialize: the result array. Every cell no accept-all tile covers
// starts as the default value; accept-all parts are copied wholesale and
// inspect parts overwritten cell by matching cell. A cell's final bytes
// therefore depend only on (stored value, predicate) — never on the
// classification — so results are byte-identical with summaries on, off,
// or discarded.
class Materialize final : public Consumer {
 public:
  Status Prepare(const Plan& plan) override {
    plan_ = &plan;
    obs::TraceScope span(plan.trace, plan.trace_id, "compose");
    const CellType cell_type = plan.object->cell_type();
    Result<Array> result = Array::Create(plan.region, cell_type);
    if (!result.ok()) return result.status();
    result_ = std::move(result).MoveValue();
    cell_size_ = cell_type.size();
    std::vector<MInterval> accepted;
    accepted.reserve(plan.tiles.size());
    for (size_t i = 0; i < plan.tiles.size(); ++i) {
      if (plan.classes[i] != TileClass::kAcceptAll) continue;
      std::optional<MInterval> part = plan.tiles[i].domain.Intersection(
          plan.region);
      if (part.has_value()) accepted.push_back(*part);
    }
    for (const MInterval& piece : Subtract(plan.region, accepted)) {
      Status st = result_.Fill(piece, plan.object->default_cell().data());
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  bool TakesEncoded(TileClass cls) const override {
    return cls != TileClass::kAcceptAll;
  }

  // RLE inspect tiles filter straight off the compressed stream.
  Status ConsumeEncoded(size_t i, const std::vector<uint8_t>& stream) override {
    Result<uint64_t> matched = FilterRleStreamInto(
        stream, plan_->tiles[i].domain, *plan_->pred, &result_);
    if (!matched.ok()) return matched.status();
    useful_bytes += *matched * cell_size_;
    return Status::OK();
  }

  Status Consume(size_t i, const Tile& tile, const MInterval& part) override {
    useful_bytes += part.CellCountOrDie() * cell_size_;
    if (plan_->classes[i] == TileClass::kAcceptAll) {
      return result_.CopyFrom(tile, part);
    }
    if (plan_->classes[i] == TileClass::kBackfill) plan_->Backfill(i, tile);
    return FilterRegionInto(tile, part, *plan_->pred, &result_);
  }

  Status Finish() override {
    result_bytes = result_.size_bytes();
    return Status::OK();
  }

  Array TakeResult() { return std::move(result_); }

 private:
  const Plan* plan_ = nullptr;
  Array result_;
  size_t cell_size_ = 0;
};

// Fold: aggregation push-down. Each tile is condensed into a per-tile
// partial the moment it is decoded and then dropped, so at most one
// decoded tile is alive at a time (a batched fetch still holds the wave's
// encoded payloads). Partials are folded in ascending BLOB-id order, then
// the uncovered default cells (iff the default matches), so the
// floating-point accumulation order — and the result — is identical at
// every parallelism.
class FoldConsumer final : public Consumer {
 public:
  explicit FoldConsumer(AggregateOp op)
      : op_(op), tile_op_(op == AggregateOp::kAvg ? AggregateOp::kSum : op) {}

  Status Prepare(const Plan& plan) override {
    plan_ = &plan;
    partials_.assign(plan.tiles.size(), MatchingAggregate{});
    return Status::OK();
  }

  bool TakesEncoded(TileClass cls) const override {
    return cls == TileClass::kAcceptAll;
  }

  // Accept-all RLE tiles fold straight over the compressed stream with
  // the unfiltered kernel.
  Status ConsumeEncoded(size_t i, const std::vector<uint8_t>& stream) override {
    const uint64_t cells = plan_->tiles[i].domain.CellCountOrDie();
    Result<double> value = AggregateRleStream(
        stream, plan_->object->cell_type(), cells, tile_op_);
    if (!value.ok()) return value.status();
    partials_[i] = MatchingAggregate{*value, cells};
    return Status::OK();
  }

  Status Consume(size_t i, const Tile& tile, const MInterval& part) override {
    if (plan_->classes[i] == TileClass::kAcceptAll) {
      Result<double> value = AggregateRegion(tile, part, tile_op_);
      if (!value.ok()) return value.status();
      partials_[i] = MatchingAggregate{*value, part.CellCountOrDie()};
      return Status::OK();
    }
    if (plan_->classes[i] == TileClass::kBackfill) plan_->Backfill(i, tile);
    Result<MatchingAggregate> partial =
        AggregateMatching(tile, part, *plan_->pred, tile_op_);
    if (!partial.ok()) return partial.status();
    partials_[i] = *partial;
    return Status::OK();
  }

  Status Finish() override {
    obs::TraceScope span(plan_->trace, plan_->trace_id, "compose");
    AggregateFold fold(op_);
    for (const MatchingAggregate& partial : partials_) {
      if (partial.cells != 0) fold.Add(partial.value, partial.cells);
    }
    useful_bytes = fold.cells() * plan_->object->cell_size();
    const uint64_t uncovered =
        plan_->region.CellCountOrDie() - plan_->covered_cells;
    if (uncovered > 0) {
      Result<double> fill = CellValueAsDouble(
          plan_->object->cell_type(), plan_->object->default_cell().data());
      if (!fill.ok()) return fill.status();
      if (plan_->pred == nullptr || plan_->pred->Matches(*fill)) {
        fold.AddUniform(*fill, uncovered);
      }
    }
    value_ = fold.Value();
    result_bytes = sizeof(double);  // a scalar comes back
    return Status::OK();
  }

  double value() const { return value_; }

 private:
  const Plan* plan_ = nullptr;
  AggregateOp op_;
  AggregateOp tile_op_;  // kAvg folds as a running sum
  std::vector<MatchingAggregate> partials_;  // in plan (BLOB-id) order
  double value_ = 0;
};

}  // namespace
}  // namespace query_pipeline

using query_pipeline::Plan;
using query_pipeline::TileClass;

RangeQueryExecutor::RangeQueryExecutor(MDDStore* store,
                                       RangeQueryOptions options)
    : store_(store), options_(options) {
  obs::MetricsRegistry* metrics = store_->metrics();
  queries_ = metrics->counter("query.executed");
  index_probes_ = metrics->counter("index.probes");
  index_nodes_visited_ = metrics->counter("index.nodes_visited");
  summary_probes_ = metrics->counter("query.summary_probes");
  summary_skips_ = metrics->counter("query.summary_skips");
  summary_inspects_ = metrics->counter("query.summary_inspects");
}

Result<MInterval> RangeQueryExecutor::ResolveRegion(const MDDObject& object,
                                                    const MInterval& region) {
  const MInterval& definition = object.definition_domain();
  if (region.dim() != definition.dim()) {
    return Status::InvalidArgument(
        "query region " + region.ToString() + " has dimensionality " +
        std::to_string(region.dim()) + ", object has " +
        std::to_string(definition.dim()));
  }
  std::vector<Coord> lo(region.dim()), hi(region.dim());
  for (size_t i = 0; i < region.dim(); ++i) {
    lo[i] = region.lo(i);
    hi[i] = region.hi(i);
    if (region.lo_unbounded(i) || region.hi_unbounded(i)) {
      if (!object.current_domain().has_value()) {
        return Status::InvalidArgument(
            "query " + region.ToString() +
            " uses '*' but object '" + object.name() +
            "' is empty (no current domain)");
      }
      if (region.lo_unbounded(i)) lo[i] = object.current_domain()->lo(i);
      if (region.hi_unbounded(i)) hi[i] = object.current_domain()->hi(i);
    }
  }
  Result<MInterval> resolved = MInterval::Create(std::move(lo), std::move(hi));
  if (!resolved.ok()) return resolved.status();
  if (!definition.Contains(resolved.value())) {
    return Status::OutOfRange("query region " + resolved->ToString() +
                              " outside definition domain " +
                              definition.ToString());
  }
  return resolved;
}

void RangeQueryExecutor::MakePlan(bool use_cache, Plan* plan,
                                  QueryStats* stats) {
  MDDObject* object = plan->object;
  const uint64_t cache_id = object->cache_id();
  // Negative cache: a warm region remembered as intersecting no tiles
  // skips the index walk — it is empty under any predicate.
  TileCache* cache = store_->tile_cache();
  const std::string region_key = use_cache ? plan->region.ToString() : "";
  std::vector<TileEntry> hits;
  if (!use_cache || !cache->LookupNegativeRegion(cache_id, region_key)) {
    obs::TraceScope span(plan->trace, plan->trace_id, "index_probe");
    hits = object->FindTiles(plan->region);
    stats->index_nodes_visited = object->index()->last_nodes_visited();
    index_probes_->Add(1);
    index_nodes_visited_->Add(stats->index_nodes_visited);
    if (use_cache && hits.empty()) {
      cache->InsertNegativeRegion(cache_id, region_key);
    }
  }
  // Physical order (ascending BLOB id = ascending page position), so large
  // scans read sequentially instead of seeking per tile.
  std::sort(hits.begin(), hits.end(),
            [](const TileEntry& a, const TileEntry& b) {
              return a.blob < b.blob;
            });

  // Class each hit. Skipped tiles end here: no fetch, no decode, no model
  // charge beyond the probe.
  plan->summaries = store_->tile_summaries();
  const bool probe = plan->pred != nullptr && plan->summaries->enabled() &&
                     cache_id != 0;
  obs::TraceScope span(plan->pred != nullptr ? plan->trace : nullptr,
                       plan->trace_id, "summary_probe");
  plan->tiles.reserve(hits.size());
  plan->classes.reserve(hits.size());
  for (TileEntry& entry : hits) {
    plan->covered_cells += OverlapCells(entry.domain, plan->region);
    TileClass cls = TileClass::kAcceptAll;
    if (plan->pred != nullptr) {
      std::optional<TileSummary> summary;
      if (probe) {
        ++stats->summary_probes;
        summary = plan->summaries->Lookup(cache_id, entry.blob);
      }
      const TilePrune prune = summary.has_value()
                                  ? ClassifyTile(*summary, *plan->pred)
                                  : TilePrune::kInspect;
      if (prune == TilePrune::kSkip) {
        ++stats->summary_skips;
        continue;
      }
      if (prune == TilePrune::kInspect) {
        ++stats->summary_inspects;
        cls = probe && !summary.has_value() ? TileClass::kBackfill
                                            : TileClass::kInspect;
      }
    }
    plan->tiles.push_back(std::move(entry));
    plan->classes.push_back(cls);
  }
  summary_probes_->Add(stats->summary_probes);
  summary_skips_->Add(stats->summary_skips);
  summary_inspects_->Add(stats->summary_inspects);
}

Status RangeQueryExecutor::Run(MDDObject* object, const MInterval& region,
                               query_pipeline::Consumer* consumer,
                               QueryStats* stats) {
  Plan plan;
  plan.object = object;
  if (options_.predicate.has_value()) {
    plan.pred = &*options_.predicate;
    Status st = plan.pred->Validate();
    if (!st.ok()) return st;
    if (!VisitNumericCellType(object->cell_type().id(), [](auto) {})) {
      return Status::InvalidArgument(
          "filtered query needs a numeric cell type; object '" +
          object->name() + "' is " + std::string(object->cell_type().name()));
    }
  }
  Result<MInterval> resolved = ResolveRegion(*object, region);
  if (!resolved.ok()) return resolved.status();
  plan.region = std::move(resolved).MoveValue();

  if (options_.log != nullptr) options_.log->Record(plan.region);
  // Feed the store's workload recorder — the observe side of the
  // re-tiling loop (the retiler mines these boxes for migrations).
  store_->workload()->Record(object->name(), plan.region);

  DiskModel* disk = store_->disk_model();
  if (options_.cold) {
    store_->buffer_pool()->Clear();
    disk->Reset();
  }
  const double disk_ms_before = disk->read_ms();
  const uint64_t pages_before = disk->pages_read();
  const uint64_t seeks_before = disk->read_seeks();

  plan.trace = store_->trace();
  plan.trace_id = plan.trace->NextTraceId();
  obs::TraceScope query_span(plan.trace, plan.trace_id, "query");
  queries_->Add(1);

  QueryStats local;
  const int parallelism = std::max(options_.parallelism, 1);
  local.parallelism = static_cast<uint64_t>(parallelism);
  // Warm runs may serve decoded tiles straight from the cache; cold runs
  // always bypass it so the cost model keeps measuring physical retrieval.
  const bool use_cache = options_.use_tile_cache && !options_.cold &&
                         store_->tile_cache()->enabled() &&
                         object->cache_id() != 0;

  // Plan (t_ix).
  const Clock::time_point ix_start = Clock::now();
  MakePlan(use_cache, &plan, &local);
  local.t_ix_measured_ms = ElapsedMs(ix_start);
  local.t_ix_model_ms = static_cast<double>(local.index_nodes_visited) *
                        options_.cost.index_node_ms;

  // Fetch (t_o) + consume (t_cpu): one scheduler batch, each tile handed
  // to the consumer as it is decoded.
  Clock::time_point compose_start = Clock::now();
  Status st = consumer->Prepare(plan);
  if (!st.ok()) return st;
  double compose_ms = ElapsedMs(compose_start);

  TileIOOptions io_options;
  io_options.parallelism = parallelism;
  io_options.trace = plan.trace;
  io_options.trace_id = plan.trace_id;
  if (use_cache) {
    io_options.cache = store_->tile_cache();
    io_options.cache_object_id = object->cache_id();
  }
  io_options.encoded_filter = [&](size_t i) {
    return plan.tiles[i].compression == Compression::kRle &&
           plan.region.Contains(plan.tiles[i].domain) &&
           consumer->TakesEncoded(plan.classes[i]);
  };
  io_options.consume_encoded = [&](size_t i,
                                   const std::vector<uint8_t>& stream) {
    return consumer->ConsumeEncoded(i, stream);
  };
  TileIOStats io;
  {
    obs::TraceScope fetch_span(plan.trace, plan.trace_id, "fetch");
    st = store_->io_scheduler()->FetchBatch(
        plan.tiles, object->cell_type(), io_options,
        [&](size_t i, const Tile& tile) -> Status {
          const std::optional<MInterval> part =
              tile.domain().Intersection(plan.region);
          if (!part.has_value()) return Status::OK();
          return consumer->Consume(i, tile, *part);
        },
        &io);
  }
  if (!st.ok()) return st;
  compose_start = Clock::now();
  st = consumer->Finish();
  if (!st.ok()) return st;
  compose_ms += ElapsedMs(compose_start);

  local.t_o_measured_ms = io.io_summed_ms;
  local.t_o_wall_ms = io.wall_ms;
  local.t_cpu_measured_ms = compose_ms + io.decode_summed_ms;
  local.t_o_model_ms = disk->read_ms() - disk_ms_before;
  local.pages_read = disk->pages_read() - pages_before;
  local.seeks = disk->read_seeks() - seeks_before;
  local.io_runs = io.coalesced_runs;
  local.tilecache_hits = io.cache_hits;
  local.tiles_accessed = io.tiles;
  local.tile_bytes_read = io.tile_bytes;
  local.useful_bytes = consumer->useful_bytes;
  local.result_cells = plan.region.CellCountOrDie();
  local.result_bytes = consumer->result_bytes;
  // t_cpu model: every retrieved byte passes through the composition layer
  // once, plus a fixed dispatch overhead per tile. Skipped tiles cost
  // nothing — the model-side face of predicate pushdown.
  local.t_cpu_model_ms =
      static_cast<double>(local.tile_bytes_read) /
          (options_.cost.cpu_process_mib_per_s * 1024.0 * 1024.0) * 1000.0 +
      static_cast<double>(local.tiles_accessed) *
          options_.cost.per_tile_cpu_ms;
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Result<Array> RangeQueryExecutor::Execute(MDDObject* object,
                                          const MInterval& region,
                                          QueryStats* stats) {
  query_pipeline::Materialize materialize;
  Status st = Run(object, region, &materialize, stats);
  if (!st.ok()) return st;
  return materialize.TakeResult();
}

Result<double> RangeQueryExecutor::ExecuteAggregate(MDDObject* object,
                                                    const MInterval& region,
                                                    AggregateOp op,
                                                    QueryStats* stats) {
  query_pipeline::FoldConsumer fold(op);
  Status st = Run(object, region, &fold, stats);
  if (!st.ok()) return st;
  return fold.value();
}

Result<Array> ReadRegion(MDDStore* store, MDDObject* object,
                         const MInterval& region) {
  RangeQueryExecutor executor(store);
  return executor.Execute(object, region);
}

}  // namespace tilestore

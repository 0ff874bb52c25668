#ifndef TILESTORE_QUERY_RANGE_QUERY_H_
#define TILESTORE_QUERY_RANGE_QUERY_H_

#include <optional>

#include "common/result.h"
#include "core/aggregate.h"
#include "core/array.h"
#include "core/minterval.h"
#include "core/predicate.h"
#include "mdd/mdd_object.h"
#include "mdd/mdd_store.h"
#include "query/access_log.h"
#include "query/query_stats.h"
#include "storage/tile_summary.h"

namespace tilestore {

namespace query_pipeline {
struct Plan;
class Consumer;
}  // namespace query_pipeline

/// Execution options for range queries.
struct RangeQueryOptions {
  /// Cold run: clear the buffer pool and reset the disk model before
  /// executing, so t_o reflects physical retrieval — the regime the paper
  /// measures. Warm runs (default) use whatever is cached.
  bool cold = false;
  /// Tile retrieval schedule. 1 (default) reads page by page, tile at a
  /// time, so counters and model costs are bit-identical to the paper's
  /// tile-at-a-time loop. Higher values fetch every miss in one coalesced
  /// `GetBatch` wave, whose reads the page file's `IoBackend` keeps in
  /// flight together; decode and composition stay on the calling thread.
  /// Results are byte-identical at any parallelism; only wall-clock (and,
  /// for cold runs, the seek interleaving recorded by the shared disk
  /// model) varies.
  int parallelism = 1;
  /// Cost model parameters for t_ix / t_cpu (see CostParams).
  CostParams cost;
  /// Optional access log: every executed query region is recorded, to be
  /// fed into statistic tiling later.
  AccessLog* log = nullptr;
  /// Consult (and populate) the store's decoded-tile cache. Only effective
  /// when the store was opened with `tile_cache_bytes > 0`; cold runs
  /// always bypass the cache so their cost-model numbers stay those of
  /// physical retrieval. Results are byte-identical either way — hits just
  /// skip the page fetch and the decode.
  bool use_tile_cache = true;
  /// Value predicate (DESIGN.md §15). When set, `Execute` returns the
  /// resolved region with non-matching cells replaced by the object's
  /// default value, and `ExecuteAggregate` folds matching cells only. The
  /// planner consults the store's per-tile summaries to classify each
  /// candidate tile as skip (no fetch, no decode), accept-all (plain
  /// copy/fold), or inspect (fetch + filtered decode); results are
  /// byte-identical whether summaries are present, absent, or stale —
  /// summaries only change *which* tiles are touched, never the bytes.
  /// Numeric cell types only.
  std::optional<ValuePredicate> predicate;
};

/// \brief Executes range queries (access types (a)-(c) of Section 5.1)
/// against MDD objects, instrumented with the paper's t_ix / t_o / t_cpu
/// breakdown.
///
/// Execution pipeline, exactly as in Section 5, shared by every query
/// kind: (1) *plan* — probe the tile index for the tiles intersecting the
/// query region and class each as skip / accept-all / inspect against the
/// predicate's tile summaries (t_ix); (2) *fetch* their BLOBs from the
/// storage system in one scheduler batch (t_o); (3) *consume* the tile
/// parts — materialize them into the result array or fold them into an
/// aggregate (t_cpu). Cells of the region covered by no tile hold the
/// object's default value.
///
/// Observability: each query gets a fresh trace id and emits nested
/// "query" / "index_probe" / "fetch" / "compose" spans into the store's
/// trace ring (the scheduler adds per-tile "tile_fetch"/"tile_decode"
/// spans), all on the calling thread. Query and index-probe counts go to the
/// store registry under `query.*` / `index.*`, and the `QueryStats`
/// storage counters (`pages_read`, `seeks`, `index_nodes_visited`) are
/// deltas of the same registry counters the store exports — a snapshot
/// taken around a cold query reconciles exactly with its `QueryStats`.
class RangeQueryExecutor {
 public:
  explicit RangeQueryExecutor(MDDStore* store,
                              RangeQueryOptions options = RangeQueryOptions());

  /// Runs the query. `region` may use unbounded bounds ('*'), which
  /// resolve against the object's current domain — e.g. the paper's query
  /// "[32:59,*:*,28:35]" selects the full product axis. The resolved
  /// region must lie inside the definition domain. `stats` may be null.
  Result<Array> Execute(MDDObject* object, const MInterval& region,
                        QueryStats* stats = nullptr);

  /// Aggregation push-down: condenses `region` with `op` without ever
  /// materializing the result array — tiles are fetched in physical order
  /// and condensed into per-tile partials immediately, so at most one
  /// decoded tile is alive regardless of the region size. Partials are
  /// folded serially in fetch order, so the result is bit-identical at
  /// every parallelism. Uncovered cells contribute the object's default
  /// value. Numeric cell types only.
  Result<double> ExecuteAggregate(MDDObject* object, const MInterval& region,
                                  AggregateOp op,
                                  QueryStats* stats = nullptr);

  /// Resolves '*' bounds of `region` against the object's current domain
  /// without executing. Exposed for tests and benchmark tooling.
  static Result<MInterval> ResolveRegion(const MDDObject& object,
                                         const MInterval& region);

  RangeQueryOptions* mutable_options() { return &options_; }

 private:
  /// plan → fetch → consume for one query; `consumer` decides what the
  /// tiles become (DESIGN.md §6).
  Status Run(MDDObject* object, const MInterval& region,
             query_pipeline::Consumer* consumer, QueryStats* stats);
  /// The plan step: index probe (or negative-cache hit), BLOB-id order,
  /// and the skip / accept-all / inspect class of every hit.
  void MakePlan(bool use_cache, query_pipeline::Plan* plan,
                QueryStats* stats);

  MDDStore* store_;
  RangeQueryOptions options_;
  // Store-registry counters, resolved once at construction.
  obs::Counter* queries_;
  obs::Counter* index_probes_;
  obs::Counter* index_nodes_visited_;
  obs::Counter* summary_probes_;
  obs::Counter* summary_skips_;
  obs::Counter* summary_inspects_;
};

/// Convenience wrapper: executes one warm query with default options.
Result<Array> ReadRegion(MDDStore* store, MDDObject* object,
                         const MInterval& region);

}  // namespace tilestore

#endif  // TILESTORE_QUERY_RANGE_QUERY_H_

#include "storage/io_scheduler.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <vector>

#include "storage/compression.h"
#include "storage/tile_cache.h"

namespace tilestore {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

void TileIOScheduler::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = {};
    return;
  }
  metrics_.batches = registry->counter("scheduler.batches");
  metrics_.tiles = registry->counter("scheduler.tiles");
  metrics_.coalesced_runs = registry->counter("scheduler.coalesced_runs");
  metrics_.chain_fallbacks = registry->counter("scheduler.chain_fallbacks");
  metrics_.cross_object_coalesced =
      registry->counter("io.cross_object_coalesced");
  metrics_.queue_depth = registry->gauge("scheduler.queue_depth");
  metrics_.batch_tiles = registry->size_histogram("scheduler.batch_tiles");
  metrics_.fetch_ms = registry->latency_histogram("scheduler.fetch_ms");
}

void TileIOStats::Add(const TileIOStats& other) {
  tiles += other.tiles;
  tile_bytes += other.tile_bytes;
  coalesced_runs += other.coalesced_runs;
  chain_fallbacks += other.chain_fallbacks;
  cross_object_coalesced += other.cross_object_coalesced;
  cache_hits += other.cache_hits;
  io_summed_ms += other.io_summed_ms;
  decode_summed_ms += other.decode_summed_ms;
  wall_ms += other.wall_ms;
}

Result<Tile> TileIOScheduler::FetchOne(const TileEntry& entry,
                                       CellType cell_type, bool coalesce) {
  Result<std::vector<uint8_t>> data =
      coalesce ? blobs_->GetCoalesced(entry.blob, nullptr)
               : blobs_->Get(entry.blob);
  if (!data.ok()) return data.status();
  return DecodePayload(entry, cell_type, std::move(data).MoveValue());
}

Result<Tile> TileIOScheduler::DecodePayload(const TileEntry& entry,
                                            CellType cell_type,
                                            std::vector<uint8_t>&& data) {
  const size_t raw_size = entry.domain.CellCountOrDie() * cell_type.size();
  Result<std::vector<uint8_t>> cells =
      Decompress(entry.compression, std::move(data), raw_size);
  if (!cells.ok()) return cells.status();
  return Tile::FromBuffer(entry.domain, cell_type,
                          std::move(cells).MoveValue());
}

Status TileIOScheduler::FetchBatch(
    std::span<const TileEntry> entries, CellType cell_type,
    const TileIOOptions& options,
    const std::function<Status(size_t, const Tile&)>& consume,
    TileIOStats* stats) {
  const Clock::time_point wall_start = Clock::now();

  // Physical page order: ascending BLOB id (BLOB pages are allocated front
  // to back). Stable so equal ids keep their submission order.
  std::vector<size_t> order(entries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return entries[a].blob < entries[b].blob;
  });

  // A null or disabled cache is the cache that never hits.
  TileCache* cache = options.cache != nullptr && options.cache->enabled() &&
                             options.cache_object_id != 0
                         ? options.cache
                         : nullptr;

  if (metrics_.batches != nullptr) {
    metrics_.batches->Add(1);
    metrics_.batch_tiles->Observe(static_cast<double>(entries.size()));
    metrics_.queue_depth->Add(static_cast<int64_t>(entries.size()));
  }
  TileIOStats merged;
  uint64_t done = 0;
  auto tile_done = [&] {
    ++done;
    if (metrics_.queue_depth != nullptr) metrics_.queue_depth->Add(-1);
  };
  // Every exit path publishes the counters and brings the queue-depth
  // gauge back down by whatever is still outstanding, errors included.
  auto finish = [&](const Status& st) {
    if (metrics_.tiles != nullptr) {
      metrics_.tiles->Add(merged.tiles);
      metrics_.coalesced_runs->Add(merged.coalesced_runs);
      metrics_.chain_fallbacks->Add(merged.chain_fallbacks);
      metrics_.cross_object_coalesced->Add(merged.cross_object_coalesced);
      metrics_.queue_depth->Add(-static_cast<int64_t>(entries.size() - done));
    }
    if (!st.ok()) return st;
    merged.wall_ms = ElapsedMs(wall_start);
    if (stats != nullptr) stats->Add(merged);
    return Status::OK();
  };

  // Cache hits resolve first, on the caller and in BLOB order: no read, no
  // decode, but the traffic totals of a fetch, so a query's counters never
  // depend on cache state. Only the misses reach the storage system.
  std::vector<size_t> misses;
  misses.reserve(order.size());
  for (size_t idx : order) {
    std::shared_ptr<const Tile> hit =
        cache != nullptr
            ? cache->Lookup(options.cache_object_id, entries[idx].blob)
            : nullptr;
    if (hit == nullptr) {
      misses.push_back(idx);
      continue;
    }
    ++merged.tiles;
    merged.tile_bytes += hit->size_bytes();
    ++merged.cache_hits;
    Status st = [&] {
      obs::TraceScope span(options.trace, options.trace_id, "tile_cache_hit");
      return consume(idx, *hit);
    }();
    if (!st.ok()) return finish(st);
    tile_done();
  }

  // The per-payload step: the encoded hook gets the raw BLOB bytes, every
  // other tile is decoded, offered to the cache and consumed. Either way
  // the tile is charged its logical decoded size — the cost model's t_cpu
  // counts cells processed, not the codec.
  auto process = [&](size_t idx, std::vector<uint8_t>&& payload) -> Status {
    const TileEntry& entry = entries[idx];
    const Clock::time_point start = Clock::now();
    Status st;
    if (options.encoded_filter && options.encoded_filter(idx)) {
      obs::TraceScope span(options.trace, options.trace_id,
                           "tile_reduce_encoded");
      st = options.consume_encoded(idx, payload);
    } else {
      obs::TraceScope span(options.trace, options.trace_id, "tile_decode");
      Result<Tile> tile = DecodePayload(entry, cell_type, std::move(payload));
      if (!tile.ok()) return tile.status();
      if (cache != nullptr) {
        st = consume(idx, *cache->Insert(options.cache_object_id, entry.blob,
                                         std::make_shared<const Tile>(
                                             std::move(tile).MoveValue())));
      } else {
        st = consume(idx, *tile);
      }
    }
    ++merged.tiles;
    merged.tile_bytes += entry.domain.CellCountOrDie() * cell_type.size();
    merged.decode_summed_ms += ElapsedMs(start);
    return st;
  };

  // Two read schedules. Serial (parallelism 1): page by page through the
  // pool, no speculative reads — the original tile-at-a-time loop, so the
  // paper's deterministic cost numbers are reproduced exactly. Batched
  // (parallelism > 1): one `GetBatch` wave hands every miss span to the
  // page file's IoBackend in a single submission (charges are replayed in
  // sorted-id order inside GetBatch, identical to a sequential coalesced
  // loop). Either way the per-payload step runs here, in BLOB order.
  const bool batched = options.parallelism > 1;
  std::vector<std::vector<uint8_t>> payloads;
  if (batched && !misses.empty()) {
    std::vector<BlobId> ids(misses.size());
    for (size_t i = 0; i < misses.size(); ++i) {
      ids[i] = entries[misses[i]].blob;
    }
    const Clock::time_point io_start = Clock::now();
    BlobReadStats batch_stats;
    Status batch_status = blobs_->GetBatch(ids, &payloads, &batch_stats);
    const double batch_io_ms = ElapsedMs(io_start);
    merged.io_summed_ms += batch_io_ms;
    if (metrics_.fetch_ms != nullptr) metrics_.fetch_ms->Observe(batch_io_ms);
    merged.coalesced_runs += batch_stats.physical_runs;
    merged.chain_fallbacks += batch_stats.fallback_chains;
    merged.cross_object_coalesced += batch_stats.cross_object_coalesced;
    if (!batch_status.ok()) return finish(batch_status);
  }
  for (size_t i = 0; i < misses.size(); ++i) {
    const size_t idx = misses[i];
    const Clock::time_point read_start = Clock::now();
    Result<std::vector<uint8_t>> payload =
        [&]() -> Result<std::vector<uint8_t>> {
      // A batched payload arrived in the wave; its empty span keeps traces
      // at one tile_fetch per fetched tile.
      obs::TraceScope span(options.trace, options.trace_id, "tile_fetch");
      if (batched) return std::move(payloads[i]);
      return blobs_->Get(entries[idx].blob);
    }();
    if (!batched) {
      const double read_ms = ElapsedMs(read_start);
      merged.io_summed_ms += read_ms;
      if (metrics_.fetch_ms != nullptr) metrics_.fetch_ms->Observe(read_ms);
    }
    Status st = payload.ok() ? process(idx, std::move(payload).MoveValue())
                             : payload.status();
    if (!st.ok()) return finish(st);
    tile_done();
  }
  return finish(Status::OK());
}

std::future<Result<Tile>> TileIOScheduler::FetchAsync(const TileEntry& entry,
                                                      CellType cell_type,
                                                      ThreadPool* pool) {
  auto promise = std::make_shared<std::promise<Result<Tile>>>();
  std::future<Result<Tile>> future = promise->get_future();
  // Copy the entry: the caller's batch may go away before the worker runs.
  TileEntry owned = entry;
  auto work = [this, owned = std::move(owned), cell_type,
               promise = std::move(promise),
               coalesce = pool != nullptr]() mutable {
    promise->set_value(FetchOne(owned, cell_type, coalesce));
  };
  if (pool != nullptr) {
    pool->Submit(std::move(work));
  } else {
    work();
  }
  return future;
}

}  // namespace tilestore

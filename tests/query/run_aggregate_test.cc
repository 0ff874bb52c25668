// Run-based aggregation kernels: AggregateRegion must be bit-identical to
// slice-then-reduce, AggregateRleStream must be bit-identical to
// decode-then-reduce (and reject malformed streams), and the query-level
// kernels (run kernel, RLE fast path, tile cache on/off, parallelism 1 and
// 8) must all produce the exact same doubles as a slice-then-reduce
// reference. Also pins the kAvg divisor on partially covered regions to
// the *region* cell count.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "test_paths.h"

#include "common/random.h"
#include "core/aggregate.h"
#include "query/range_query.h"
#include "storage/compression.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

const AggregateOp kAllOps[] = {AggregateOp::kSum, AggregateOp::kMin,
                               AggregateOp::kMax, AggregateOp::kAvg,
                               AggregateOp::kCount};

TEST(AggregateRegionTest, MatchesSliceReduceOnRandomRegions) {
  const MInterval domain({{0, 24}, {0, 19}, {0, 9}});
  Array data =
      Array::Create(domain, CellType::Of(CellTypeId::kFloat64)).value();
  Random fill(11);
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<double>(p, static_cast<double>(fill.UniformInt(-999, 999)) / 7.0);
  });

  Random rng(12);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<Coord> lo(3), hi(3);
    for (size_t i = 0; i < 3; ++i) {
      lo[i] = rng.UniformInt(domain.lo(i), domain.hi(i));
      hi[i] = rng.UniformInt(lo[i], domain.hi(i));
    }
    const MInterval region = MInterval::Create(lo, hi).value();
    Array slice = data.Slice(region).MoveValue();
    for (AggregateOp op : kAllOps) {
      Result<double> run = AggregateRegion(data, region, op);
      ASSERT_TRUE(run.ok()) << run.status();
      // Exact comparison: the run kernel visits cells in the same
      // row-major order the slice linearizes them in.
      EXPECT_EQ(*run, AggregateCells(slice, op).value())
          << region.ToString() << " op " << AggregateOpToName(op);
    }
  }
}

TEST(AggregateRegionTest, RejectsBadInput) {
  const MInterval domain({{0, 9}});
  Array data =
      Array::Create(domain, CellType::Of(CellTypeId::kInt32)).value();
  // Region outside the array domain.
  EXPECT_FALSE(
      AggregateRegion(data, MInterval({{5, 12}}), AggregateOp::kSum).ok());
  // Dimensionality mismatch.
  EXPECT_FALSE(
      AggregateRegion(data, MInterval({{0, 1}, {0, 1}}), AggregateOp::kSum)
          .ok());
  // Non-numeric cells.
  Array rgb =
      Array::Create(domain, CellType::Of(CellTypeId::kRGB8)).value();
  EXPECT_FALSE(AggregateRegion(rgb, domain, AggregateOp::kSum).ok());
}

template <typename T>
void CheckRleStreamIdentity(CellTypeId id) {
  const MInterval domain({{0, 149}});
  Array data = Array::Create(domain, CellType::Of(id)).value();
  // Runs of 10 equal cells with a few distinct values: compresses into a
  // mix of repeat and literal PackBits runs.
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<T>(p, static_cast<T>((p[0] / 10) % 5));
  });
  const std::vector<uint8_t> raw(data.data(),
                                 data.data() + data.size_bytes());
  const std::vector<uint8_t> stream = Compress(Compression::kRle, raw);
  for (AggregateOp op : kAllOps) {
    Result<double> folded = AggregateRleStream(
        stream, data.cell_type(), domain.CellCountOrDie(), op);
    ASSERT_TRUE(folded.ok()) << folded.status();
    EXPECT_EQ(*folded, AggregateCells(data, op).value())
        << data.cell_type().name() << " op " << AggregateOpToName(op);
  }
}

TEST(AggregateRleStreamTest, MatchesDecodeReduceForEveryNumericType) {
  CheckRleStreamIdentity<uint8_t>(CellTypeId::kUInt8);
  CheckRleStreamIdentity<int8_t>(CellTypeId::kInt8);
  CheckRleStreamIdentity<uint16_t>(CellTypeId::kUInt16);
  CheckRleStreamIdentity<int16_t>(CellTypeId::kInt16);
  CheckRleStreamIdentity<uint32_t>(CellTypeId::kUInt32);
  CheckRleStreamIdentity<int32_t>(CellTypeId::kInt32);
  CheckRleStreamIdentity<uint64_t>(CellTypeId::kUInt64);
  CheckRleStreamIdentity<int64_t>(CellTypeId::kInt64);
  CheckRleStreamIdentity<float>(CellTypeId::kFloat32);
  CheckRleStreamIdentity<double>(CellTypeId::kFloat64);
}

TEST(AggregateRleStreamTest, NegativeValuesAndMixedRuns) {
  const MInterval domain({{0, 99}});
  Array data =
      Array::Create(domain, CellType::Of(CellTypeId::kInt16)).value();
  Random rng(21);
  ForEachPoint(domain, [&](const Point& p) {
    // Half runs, half noise: exercises literal/repeat transitions within
    // and across multi-byte cell boundaries.
    const int64_t v = (p[0] % 20 < 10) ? -7 : rng.UniformInt(-300, 300);
    data.Set<int16_t>(p, static_cast<int16_t>(v));
  });
  const std::vector<uint8_t> raw(data.data(),
                                 data.data() + data.size_bytes());
  const std::vector<uint8_t> stream = Compress(Compression::kRle, raw);
  for (AggregateOp op : kAllOps) {
    EXPECT_EQ(AggregateRleStream(stream, data.cell_type(),
                                 domain.CellCountOrDie(), op)
                  .value(),
              AggregateCells(data, op).value());
  }
}

TEST(AggregateRleStreamTest, RejectsMalformedStreams) {
  const CellType u16 = CellType::Of(CellTypeId::kUInt16);
  // A valid 4-cell stream to mutate: 8 literal bytes.
  std::vector<uint8_t> valid = {0x07, 1, 0, 2, 0, 3, 0, 4, 0};
  EXPECT_TRUE(AggregateRleStream(valid, u16, 4, AggregateOp::kSum).ok());

  // Reserved control byte 0x80.
  EXPECT_FALSE(AggregateRleStream({0x80}, u16, 4, AggregateOp::kSum).ok());
  // Truncated: control promises more literal bytes than present.
  std::vector<uint8_t> truncated(valid.begin(), valid.end() - 1);
  EXPECT_FALSE(AggregateRleStream(truncated, u16, 4, AggregateOp::kSum).ok());
  // Overlong: decodes to more bytes than the declared cell count.
  std::vector<uint8_t> overlong = valid;
  overlong.push_back(0x01);
  overlong.push_back(9);
  overlong.push_back(9);
  EXPECT_FALSE(AggregateRleStream(overlong, u16, 4, AggregateOp::kSum).ok());
  // Declared size not reached (partial trailing cell).
  EXPECT_FALSE(AggregateRleStream({0x02, 1, 2, 3}, u16, 2, AggregateOp::kSum)
                   .ok());
  // Empty aggregate is undefined.
  EXPECT_FALSE(AggregateRleStream({}, u16, 0, AggregateOp::kSum).ok());
}

// ---------------------------------------------------------------------------
// Query-level kernel identity.

class RunAggregateQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("run_aggregate_test.db");
    Wipe();
    MDDStoreOptions options;
    options.page_size = 512;
    options.tile_cache_bytes = 4 << 20;
    store_ = MDDStore::Create(path_, options).MoveValue();
  }
  void TearDown() override {
    store_.reset();
    Wipe();
  }
  void Wipe() {
    (void)RemoveFile(path_);
    (void)RemoveFile(path_ + ".wal");
    (void)RemoveFile(path_ + ".lock");
  }

  double Aggregate(MDDObject* obj, const MInterval& region, AggregateOp op,
                   int parallelism, bool use_cache) {
    RangeQueryOptions options;
    options.parallelism = parallelism;
    options.use_tile_cache = use_cache;
    RangeQueryExecutor executor(store_.get(), options);
    Result<double> value = executor.ExecuteAggregate(obj, region, op);
    EXPECT_TRUE(value.ok()) << value.status();
    return value.ok() ? *value : 0.0;
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

// The bit-identity reference: the materialize-then-reduce kernel, run
// cold by hand. Probe the index, fetch the hits one by one in BLOB order,
// slice each tile's part and reduce it (kAvg as a running sum), then fold
// the partials in that order and the uncovered cells as the default value.
// `stats` gets the cost-model figures such a run charges.
struct SliceReference {
  double value = 0;
  QueryStats stats;
};

SliceReference SliceAggregate(MDDStore* store, MDDObject* obj,
                              const MInterval& region, AggregateOp op) {
  SliceReference ref;
  store->buffer_pool()->Clear();
  store->disk_model()->Reset();
  std::vector<TileEntry> hits = obj->FindTiles(region);
  ref.stats.index_nodes_visited = obj->index()->last_nodes_visited();
  std::sort(hits.begin(), hits.end(),
            [](const TileEntry& a, const TileEntry& b) {
              return a.blob < b.blob;
            });
  const AggregateOp tile_op =
      op == AggregateOp::kAvg ? AggregateOp::kSum : op;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double nonzero = 0;
  uint64_t covered = 0;
  for (const TileEntry& entry : hits) {
    Result<Tile> tile = obj->FetchTile(entry);
    EXPECT_TRUE(tile.ok()) << tile.status();
    if (!tile.ok()) return ref;
    ++ref.stats.tiles_accessed;
    ref.stats.tile_bytes_read += tile->size_bytes();
    const std::optional<MInterval> part = entry.domain.Intersection(region);
    Result<Array> slice = tile->Slice(*part);
    EXPECT_TRUE(slice.ok()) << slice.status();
    if (!slice.ok()) return ref;
    const double partial = AggregateCells(*slice, tile_op).value();
    covered += part->CellCountOrDie();
    sum += partial;
    min = std::min(min, partial);
    max = std::max(max, partial);
    nonzero += partial;
  }
  const uint64_t uncovered = region.CellCountOrDie() - covered;
  if (uncovered > 0) {
    const double fill =
        CellValueAsDouble(obj->cell_type(), obj->default_cell().data())
            .value();
    sum += fill * static_cast<double>(uncovered);
    min = std::min(min, fill);
    max = std::max(max, fill);
    if (fill != 0.0) nonzero += static_cast<double>(uncovered);
  }
  switch (op) {
    case AggregateOp::kSum:
      ref.value = sum;
      break;
    case AggregateOp::kAvg:
      ref.value = sum / static_cast<double>(region.CellCountOrDie());
      break;
    case AggregateOp::kMin:
      ref.value = min;
      break;
    case AggregateOp::kMax:
      ref.value = max;
      break;
    case AggregateOp::kCount:
      ref.value = nonzero;
      break;
  }
  const DiskModel* disk = store->disk_model();
  const CostParams cost;
  ref.stats.pages_read = disk->pages_read();
  ref.stats.seeks = disk->read_seeks();
  ref.stats.t_ix_model_ms =
      static_cast<double>(ref.stats.index_nodes_visited) * cost.index_node_ms;
  ref.stats.t_o_model_ms = disk->read_ms();
  ref.stats.t_cpu_model_ms =
      static_cast<double>(ref.stats.tile_bytes_read) /
          (cost.cpu_process_mib_per_s * 1024.0 * 1024.0) * 1000.0 +
      static_cast<double>(ref.stats.tiles_accessed) * cost.per_tile_cpu_ms;
  return ref;
}

TEST_F(RunAggregateQueryTest, RunAndSliceKernelsAreBitIdentical) {
  const MInterval domain({{0, 39}, {0, 29}});
  MDDObject* obj =
      store_->CreateMDD("obj", domain, CellType::Of(CellTypeId::kFloat64))
          .value();
  Array data = Array::Create(domain, obj->cell_type()).value();
  Random fill(31);
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<double>(p, static_cast<double>(fill.UniformInt(-500, 500)) / 3.0);
  });
  ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 800)).ok());

  Random rng(32);
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<Coord> lo(2), hi(2);
    for (size_t i = 0; i < 2; ++i) {
      lo[i] = rng.UniformInt(domain.lo(i), domain.hi(i));
      hi[i] = rng.UniformInt(lo[i], domain.hi(i));
    }
    const MInterval region = MInterval::Create(lo, hi).value();
    for (AggregateOp op : kAllOps) {
      const double reference =
          SliceAggregate(store_.get(), obj, region, op).value;
      for (int parallelism : {1, 8}) {
        for (bool use_cache : {false, true}) {
          EXPECT_EQ(Aggregate(obj, region, op, parallelism, use_cache),
                    reference)
              << region.ToString() << " op " << AggregateOpToName(op)
              << " p=" << parallelism << " cache=" << use_cache;
        }
      }
    }
  }
}

TEST_F(RunAggregateQueryTest, RleFastPathIsBitIdentical) {
  const MInterval domain({{0, 63}, {0, 63}});
  MDDObject* obj =
      store_->CreateMDD("sparse", domain, CellType::Of(CellTypeId::kInt32))
          .value();
  obj->SetCompression(Compression::kRle);
  Array data = Array::Create(domain, obj->cell_type()).value();
  // Mostly-constant data so every tile actually stores as kRle.
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<int32_t>(p, (p[0] % 16 == 0) ? static_cast<int32_t>(p[1]) : -1);
  });
  ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 4096)).ok());

  // Whole-domain regions contain every tile, so the run kernel folds the
  // compressed streams directly; interior regions fall back to the decoded
  // run kernel. Both must match the slice kernel exactly.
  for (const MInterval& region :
       {domain, MInterval({{5, 60}, {3, 58}}), MInterval({{0, 15}, {0, 63}})}) {
    for (AggregateOp op : kAllOps) {
      const double reference =
          SliceAggregate(store_.get(), obj, region, op).value;
      for (int parallelism : {1, 8}) {
        for (bool use_cache : {false, true}) {
          EXPECT_EQ(Aggregate(obj, region, op, parallelism, use_cache),
                    reference)
              << region.ToString() << " op " << AggregateOpToName(op)
              << " p=" << parallelism << " cache=" << use_cache;
        }
      }
    }
  }
}

// Regression: kAvg over a partially (or fully) uncovered region divides by
// the *region* cell count, with uncovered cells contributing the default
// value — not by the covered cell count.
TEST_F(RunAggregateQueryTest, AvgOverUncoveredRegionDividesByRegionCells) {
  MDDObject* obj =
      store_->CreateMDD("partial", MInterval({{0, 99}}),
                        CellType::Of(CellTypeId::kInt32))
          .value();
  const int32_t two = 2;
  ASSERT_TRUE(obj->SetDefaultCell(std::vector<uint8_t>(
                  reinterpret_cast<const uint8_t*>(&two),
                  reinterpret_cast<const uint8_t*>(&two) + 4))
                  .ok());
  Array tile =
      Array::Create(MInterval({{0, 9}}), obj->cell_type()).value();
  const int32_t ten = 10;
  ASSERT_TRUE(tile.Fill(tile.domain(), &ten).ok());
  ASSERT_TRUE(obj->InsertTile(tile).ok());
  Array far = Array::Create(MInterval({{90, 99}}), obj->cell_type()).value();
  ASSERT_TRUE(obj->InsertTile(far).ok());

  // [0:29]: 10 cells of 10 and 20 default cells of 2 -> sum 140 over 30
  // region cells. Fully uncovered region: average is exactly the default
  // value.
  EXPECT_EQ(SliceAggregate(store_.get(), obj, MInterval({{0, 29}}),
                           AggregateOp::kAvg)
                .value,
            140.0 / 30.0);
  EXPECT_EQ(SliceAggregate(store_.get(), obj, MInterval({{40, 69}}),
                           AggregateOp::kAvg)
                .value,
            2.0);
  for (int parallelism : {1, 8}) {
    EXPECT_EQ(Aggregate(obj, MInterval({{0, 29}}), AggregateOp::kAvg,
                        parallelism, true),
              140.0 / 30.0);
    EXPECT_EQ(Aggregate(obj, MInterval({{40, 69}}), AggregateOp::kAvg,
                        parallelism, true),
              2.0);
  }
}

// Cold cost-model guard: opening the store with a tile-cache budget (and
// running the run kernel) must not change any cold-run cost-model number
// against the slice reference —
// the cache is bypassed on cold runs and the encoded fast path charges the
// logical decoded tile size.
TEST_F(RunAggregateQueryTest, ColdCostModelUnchangedByCacheAndKernel) {
  const std::string other_path = UniqueTestPath("run_aggregate_nocache.db");
  (void)RemoveFile(other_path);
  (void)RemoveFile(other_path + ".wal");
  MDDStoreOptions no_cache;
  no_cache.page_size = 512;
  no_cache.tile_cache_bytes = 0;
  auto plain = MDDStore::Create(other_path, no_cache).MoveValue();

  const MInterval domain({{0, 63}, {0, 63}});
  auto load = [&](MDDStore* store) {
    MDDObject* obj =
        store->CreateMDD("obj", domain, CellType::Of(CellTypeId::kInt32))
            .value();
    obj->SetCompression(Compression::kRle);
    Array data = Array::Create(domain, obj->cell_type()).value();
    ForEachPoint(domain, [&](const Point& p) {
      data.Set<int32_t>(p, static_cast<int32_t>(p[0] / 8));
    });
    EXPECT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 4096)).ok());
    return obj;
  };
  MDDObject* cached_obj = load(store_.get());
  MDDObject* plain_obj = load(plain.get());

  auto cold_stats = [&](MDDStore* store, MDDObject* obj) {
    RangeQueryOptions options;
    options.cold = true;
    RangeQueryExecutor executor(store, options);
    QueryStats stats;
    EXPECT_TRUE(
        executor.ExecuteAggregate(obj, domain, AggregateOp::kSum, &stats)
            .ok());
    return stats;
  };

  const QueryStats slice =
      SliceAggregate(plain.get(), plain_obj, domain, AggregateOp::kSum).stats;
  for (MDDStore* store : {store_.get(), plain.get()}) {
    const QueryStats got =
        cold_stats(store, store == store_.get() ? cached_obj : plain_obj);
    EXPECT_EQ(got.tiles_accessed, slice.tiles_accessed);
    EXPECT_EQ(got.tile_bytes_read, slice.tile_bytes_read);
    EXPECT_EQ(got.pages_read, slice.pages_read);
    EXPECT_EQ(got.seeks, slice.seeks);
    EXPECT_EQ(got.tilecache_hits, 0u);
    EXPECT_EQ(got.t_ix_model_ms, slice.t_ix_model_ms);
    EXPECT_EQ(got.t_o_model_ms, slice.t_o_model_ms);
    EXPECT_EQ(got.t_cpu_model_ms, slice.t_cpu_model_ms);
  }

  plain.reset();
  (void)RemoveFile(other_path);
  (void)RemoveFile(other_path + ".wal");
  (void)RemoveFile(other_path + ".lock");
}

}  // namespace
}  // namespace tilestore

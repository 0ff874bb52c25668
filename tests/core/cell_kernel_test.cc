// Bit-identity of the cell kernels (AggregateCells, AggregateRegion,
// AggregateRleStream, AggregateMatching, FilterRegionInto,
// FilterRleStreamInto, FillRegion) against test-local references: the
// in-order loops that widen every cell to double and fold it one at a time.
// Doubles are compared by bit pattern, not with EXPECT_DOUBLE_EQ, which
// accepts 4 ULP and so cannot see a change of summation order. Covers all
// ten numeric cell types and all five ops on seeded random regions with
// cells at the type's limits, raw tiles and RLE streams, filtered and
// unfiltered, the uint32 sum exactly at its 2^21-cell integer bound and
// just past it (the in-order double fallback), and fills with uniform and
// non-uniform default cells.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <type_traits>
#include <vector>

#include "core/aggregate.h"
#include "core/array.h"
#include "core/filter.h"
#include "core/linearizer.h"
#include "core/predicate.h"
#include "storage/compression.h"

namespace tilestore {
namespace {

const AggregateOp kAllOps[] = {AggregateOp::kSum, AggregateOp::kMin,
                               AggregateOp::kMax, AggregateOp::kAvg,
                               AggregateOp::kCount};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

#define EXPECT_SAME_BITS(got, want)                                      \
  EXPECT_EQ(Bits(got), Bits(want)) << "got " << (got) << " want " << (want)

// The in-order reference: every cell that `pred` accepts (all of them when
// `pred` is null) widened to double and folded one at a time, in order.
// `AggregateFold` semantics: 0 when no cell is accepted.
template <typename T>
MatchingAggregate ReferenceReduce(const std::vector<T>& cells, AggregateOp op,
                                  const ValuePredicate* pred = nullptr) {
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  uint64_t nonzero = 0;
  uint64_t n = 0;
  for (T cell : cells) {
    const double v = static_cast<double>(cell);
    if (pred != nullptr && !pred->Matches(v)) continue;
    ++n;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    if (cell != static_cast<T>(0)) ++nonzero;
  }
  if (n == 0) return MatchingAggregate{};
  double value = 0;
  switch (op) {
    case AggregateOp::kSum: value = sum; break;
    case AggregateOp::kAvg: value = sum / static_cast<double>(n); break;
    case AggregateOp::kMin: value = min; break;
    case AggregateOp::kMax: value = max; break;
    case AggregateOp::kCount: value = static_cast<double>(nonzero); break;
  }
  return MatchingAggregate{value, n};
}

template <typename T>
std::vector<T> CellsOf(const Array& array) {
  std::vector<T> cells(array.cell_count());
  std::memcpy(cells.data(), array.data(), array.size_bytes());
  return cells;
}

// Seeded cell values over T's whole range, with the limits mixed in; for
// floating-point types also signed zeros and subnormals.
template <typename T>
T RandomCell(std::mt19937_64& rng) {
  const T limits[] = {std::numeric_limits<T>::lowest(),
                      std::numeric_limits<T>::max(), static_cast<T>(0),
                      static_cast<T>(1)};
  if (rng() % 8 == 0) return limits[rng() % 4];
  if constexpr (std::is_integral_v<T>) {
    T v;
    const uint64_t r = rng();
    std::memcpy(&v, &r, sizeof(T));
    return v;
  } else {
    if (rng() % 16 == 0) return -static_cast<T>(0);
    if (rng() % 16 == 0) return std::numeric_limits<T>::denorm_min();
    std::uniform_real_distribution<double> mag(-300, 300);
    std::uniform_real_distribution<double> mantissa(-1, 1);
    const double exp = std::is_same_v<T, float> ? mag(rng) / 10 : mag(rng);
    return static_cast<T>(mantissa(rng) * std::pow(2.0, exp));
  }
}

// Fills `array` with runs of repeated cells whose bytes are all equal (so
// RLE streams carry whole-cell repeat runs) between random literal cells.
template <typename T>
void FillRunny(Array* array, std::mt19937_64& rng) {
  uint8_t* out = array->mutable_data();
  const uint64_t n = array->cell_count();
  for (uint64_t i = 0; i < n;) {
    const uint64_t len = std::min<uint64_t>(n - i, 1 + rng() % 300);
    if (rng() % 2 == 0) {
      std::memset(out + i * sizeof(T), static_cast<int>(rng() % 256),
                  len * sizeof(T));
    } else {
      for (uint64_t k = 0; k < len; ++k) {
        const T v = RandomCell<T>(rng);
        std::memcpy(out + (i + k) * sizeof(T), &v, sizeof(T));
      }
    }
    i += len;
  }
}

template <typename T>
void FillRandom(Array* array, std::mt19937_64& rng) {
  for (uint64_t i = 0; i < array->cell_count(); ++i) {
    const T v = RandomCell<T>(rng);
    std::memcpy(array->mutable_data() + i * sizeof(T), &v, sizeof(T));
  }
}

Coord Uniform(std::mt19937_64& rng, Coord lo, Coord hi) {
  return std::uniform_int_distribution<Coord>(lo, hi)(rng);
}

MInterval RandomDomain(std::mt19937_64& rng) {
  const size_t dim = 1 + rng() % 3;
  std::vector<Coord> lo(dim), hi(dim);
  for (size_t i = 0; i < dim; ++i) {
    lo[i] = Uniform(rng, -20, 20);
    hi[i] = lo[i] + Uniform(rng, 0, dim == 1 ? 400 : 24);
  }
  return MInterval::Create(lo, hi).value();
}

MInterval RandomRegionIn(const MInterval& domain, std::mt19937_64& rng) {
  std::vector<Coord> lo(domain.dim()), hi(domain.dim());
  for (size_t i = 0; i < domain.dim(); ++i) {
    lo[i] = Uniform(rng, domain.lo(i), domain.hi(i));
    hi[i] = Uniform(rng, lo[i], domain.hi(i));
  }
  return MInterval::Create(lo, hi).value();
}

// Predicates of every kind whose constants are cell values of `cells`, so
// each accepts some cells and rejects others.
template <typename T>
std::vector<ValuePredicate> PredicatesFor(const std::vector<T>& cells,
                                          std::mt19937_64& rng) {
  auto pick = [&] {
    return static_cast<double>(cells[rng() % cells.size()]);
  };
  double a = pick();
  double b = pick();
  if (std::isnan(a)) a = 0;
  if (std::isnan(b)) b = 1;
  using Kind = ValuePredicate::Kind;
  return {ValuePredicate{Kind::kLess, a, 0},
          ValuePredicate{Kind::kGreater, a, 0},
          ValuePredicate{Kind::kBetween, std::min(a, b), std::max(a, b)},
          ValuePredicate{Kind::kEqual, a, 0},
          ValuePredicate{Kind::kLess, -std::numeric_limits<double>::max(), 0}};
}

template <typename T>
class CellKernelTest : public ::testing::Test {
 protected:
  CellType type() const {
    return CellType::Of(CellTypeTraits<T>::kId);
  }
};

using NumericTypes =
    ::testing::Types<uint8_t, int8_t, uint16_t, int16_t, uint32_t, int32_t,
                     uint64_t, int64_t, float, double>;
TYPED_TEST_SUITE(CellKernelTest, NumericTypes);

TYPED_TEST(CellKernelTest, AggregateCellsAndRegionMatchInOrderLoop) {
  using T = TypeParam;
  std::mt19937_64 rng(1401);
  for (int iter = 0; iter < 40; ++iter) {
    const MInterval domain = RandomDomain(rng);
    Array tile = Array::Create(domain, this->type()).value();
    if (iter % 2 == 0) {
      FillRandom<T>(&tile, rng);
    } else {
      FillRunny<T>(&tile, rng);
    }
    const std::vector<T> all = CellsOf<T>(tile);
    const MInterval region = RandomRegionIn(domain, rng);
    const std::vector<T> part = CellsOf<T>(tile.Slice(region).value());
    for (AggregateOp op : kAllOps) {
      SCOPED_TRACE(AggregateOpToName(op));
      EXPECT_SAME_BITS(AggregateCells(tile, op).value(),
                       ReferenceReduce(all, op).value);
      EXPECT_SAME_BITS(AggregateRegion(tile, region, op).value(),
                       ReferenceReduce(part, op).value);
    }
  }
}

TYPED_TEST(CellKernelTest, AggregateRleStreamMatchesInOrderLoop) {
  using T = TypeParam;
  std::mt19937_64 rng(1402);
  for (int iter = 0; iter < 40; ++iter) {
    Array tile = Array::Create(RandomDomain(rng), this->type()).value();
    FillRunny<T>(&tile, rng);
    const std::vector<T> all = CellsOf<T>(tile);
    const std::vector<uint8_t> raw(tile.data(),
                                   tile.data() + tile.size_bytes());
    const std::vector<uint8_t> stream = Compress(Compression::kRle, raw);
    for (AggregateOp op : kAllOps) {
      SCOPED_TRACE(AggregateOpToName(op));
      EXPECT_SAME_BITS(
          AggregateRleStream(stream, this->type(), all.size(), op).value(),
          ReferenceReduce(all, op).value);
    }
  }
}

TYPED_TEST(CellKernelTest, AggregateMatchingMatchesInOrderLoop) {
  using T = TypeParam;
  std::mt19937_64 rng(1403);
  for (int iter = 0; iter < 30; ++iter) {
    const MInterval domain = RandomDomain(rng);
    Array tile = Array::Create(domain, this->type()).value();
    FillRandom<T>(&tile, rng);
    const MInterval region = RandomRegionIn(domain, rng);
    const std::vector<T> part = CellsOf<T>(tile.Slice(region).value());
    for (const ValuePredicate& pred : PredicatesFor(part, rng)) {
      for (AggregateOp op : kAllOps) {
        SCOPED_TRACE(pred.ToString() + " " +
                     std::string(AggregateOpToName(op)));
        const MatchingAggregate got =
            AggregateMatching(tile, region, pred, op).value();
        const MatchingAggregate want = ReferenceReduce(part, op, &pred);
        EXPECT_EQ(got.cells, want.cells);
        EXPECT_SAME_BITS(got.value, want.value);
      }
    }
  }
}

// The reference filter: every accepted cell of `part` copied on its own.
template <typename T>
void ReferenceFilter(const Array& tile, const MInterval& part,
                     const ValuePredicate& pred, Array* result) {
  ForEachPoint(part, [&](const Point& p) {
    T v;
    std::memcpy(&v, tile.CellAt(p), sizeof(T));
    if (pred.Matches(static_cast<double>(v))) {
      std::memcpy(result->MutableCellAt(p), tile.CellAt(p), sizeof(T));
    }
  });
}

TYPED_TEST(CellKernelTest, FilterRegionAndRleStreamMatchCellByCellCopy) {
  using T = TypeParam;
  std::mt19937_64 rng(1404);
  for (int iter = 0; iter < 30; ++iter) {
    const MInterval tile_domain = RandomDomain(rng);
    // The result domain strictly contains the tile, as a query region
    // spanning several tiles does.
    std::vector<Coord> lo(tile_domain.dim()), hi(tile_domain.dim());
    for (size_t i = 0; i < tile_domain.dim(); ++i) {
      lo[i] = tile_domain.lo(i) - Uniform(rng, 0, 3);
      hi[i] = tile_domain.hi(i) + Uniform(rng, 0, 3);
    }
    const MInterval result_domain = MInterval::Create(lo, hi).value();
    Array tile = Array::Create(tile_domain, this->type()).value();
    FillRunny<T>(&tile, rng);
    Array background = Array::Create(result_domain, this->type()).value();
    FillRandom<T>(&background, rng);
    const MInterval part = RandomRegionIn(tile_domain, rng);
    const std::vector<uint8_t> raw(tile.data(),
                                   tile.data() + tile.size_bytes());
    const std::vector<uint8_t> stream = Compress(Compression::kRle, raw);

    for (const ValuePredicate& pred : PredicatesFor(CellsOf<T>(tile), rng)) {
      SCOPED_TRACE(pred.ToString());
      Array want = background;
      ReferenceFilter<T>(tile, part, pred, &want);
      Array got = background;
      ASSERT_TRUE(FilterRegionInto(tile, part, pred, &got).ok());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size_bytes()));

      Array want_whole = background;
      ReferenceFilter<T>(tile, tile_domain, pred, &want_whole);
      Array got_rle = background;
      const Result<uint64_t> matched =
          FilterRleStreamInto(stream, tile_domain, pred, &got_rle);
      ASSERT_TRUE(matched.ok()) << matched.status();
      EXPECT_EQ(*matched,
                ReferenceReduce(CellsOf<T>(tile), AggregateOp::kSum, &pred)
                    .cells);
      EXPECT_EQ(0, std::memcmp(got_rle.data(), want_whole.data(),
                               want_whole.size_bytes()));
    }
  }
}

// 2^21 uint32 cells is the largest count whose sum the int64 path takes;
// past it the kernels fall back to the in-order double loop. With every
// cell at the maximum, the chain's first 2^21 adds are exact and its later
// adds round: one cell past the bound it still equals the correctly rounded
// exact sum (one rounding), two cells past it no longer does, so only the
// in-order fallback can match the reference there.
TEST(CellKernelBoundTest, Uint32SumAtAndPastTheIntegerBound) {
  constexpr uint64_t kBound = uint64_t{1} << 21;
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
  const CellType u32 = CellType::Of(CellTypeId::kUInt32);
  for (uint64_t cells : {kBound, kBound + 1, kBound + 2}) {
    SCOPED_TRACE(cells);
    const MInterval domain({{0, static_cast<Coord>(cells) - 1}});
    Array tile = Array::Create(domain, u32).value();
    std::memset(tile.mutable_data(), 0xFF, tile.size_bytes());
    const std::vector<uint32_t> all = CellsOf<uint32_t>(tile);
    const double exact = static_cast<double>(cells * kMax);
    const double chain = ReferenceReduce(all, AggregateOp::kSum).value;
    if (cells <= kBound + 1) {
      EXPECT_SAME_BITS(chain, exact);
    } else {
      EXPECT_NE(Bits(chain), Bits(exact));
    }
    const std::vector<uint8_t> raw(tile.data(),
                                   tile.data() + tile.size_bytes());
    const std::vector<uint8_t> stream = Compress(Compression::kRle, raw);
    const ValuePredicate all_match{ValuePredicate::Kind::kGreater, -1, 0};
    for (AggregateOp op : {AggregateOp::kSum, AggregateOp::kAvg}) {
      SCOPED_TRACE(AggregateOpToName(op));
      const double want = ReferenceReduce(all, op).value;
      EXPECT_SAME_BITS(AggregateCells(tile, op).value(), want);
      EXPECT_SAME_BITS(AggregateRegion(tile, domain, op).value(), want);
      EXPECT_SAME_BITS(AggregateRleStream(stream, u32, cells, op).value(),
                       want);
      EXPECT_SAME_BITS(
          AggregateMatching(tile, domain, all_match, op).value().value,
          want);
    }
  }
}

// Reference fill: one memcpy per cell.
void ReferenceFill(const MInterval& domain, uint8_t* dst,
                   const MInterval& region, const uint8_t* cell,
                   size_t cell_size) {
  ForEachPoint(region, [&](const Point& p) {
    std::memcpy(dst + RowMajorOffset(domain, p) * cell_size, cell,
                cell_size);
  });
}

TEST(CellKernelFillTest, UniformAndNonUniformDefaultCells) {
  std::mt19937_64 rng(1405);
  const std::vector<std::vector<uint8_t>> cells = {
      {0},                                  // uint8 zero
      {0x7F},                               // uint8 non-zero
      {0, 0},                               // uniform 2-byte
      {0x01, 0x02},                         // non-uniform 2-byte
      {0xFF, 0xFF, 0xFF, 0xFF},             // uniform 4-byte
      {0x04, 0x03, 0x02, 0x01},             // non-uniform 4-byte
      {1, 2, 3},                            // rgb8
      {0, 0, 0, 0, 0, 0, 0, 0x80},          // non-uniform 8-byte
      {9, 9, 9, 9, 9, 9, 9, 9},             // uniform 8-byte
      {1, 2, 3, 4, 5},                      // opaque 5
      {7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, // uniform opaque 12
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},  // opaque 16
  };
  for (const std::vector<uint8_t>& cell : cells) {
    for (int iter = 0; iter < 20; ++iter) {
      const MInterval domain = RandomDomain(rng);
      const MInterval region = RandomRegionIn(domain, rng);
      const size_t bytes = domain.CellCountOrDie() * cell.size();
      std::vector<uint8_t> want(bytes);
      for (uint8_t& b : want) b = static_cast<uint8_t>(rng());
      std::vector<uint8_t> got = want;
      ReferenceFill(domain, want.data(), region, cell.data(), cell.size());
      ASSERT_TRUE(FillRegion(domain, got.data(), region, cell.data(),
                             cell.size())
                      .ok());
      EXPECT_EQ(got, want) << "cell size " << cell.size() << " region "
                           << region.ToString();
    }
  }
}

}  // namespace
}  // namespace tilestore

#ifndef TILESTORE_CORE_AGGREGATE_H_
#define TILESTORE_CORE_AGGREGATE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/array.h"
#include "core/minterval.h"

namespace tilestore {

/// Cell-condensing operations over arrays — the reductions behind OLAP
/// sub-aggregation queries (Section 5.1 access type (c): "to perform a
/// subaggregation"). Mirrors RasQL's condenser functions.
enum class AggregateOp {
  kSum,    // add_cells
  kMin,    // min_cells
  kMax,    // max_cells
  kAvg,    // avg_cells
  kCount,  // count_cells (cells different from zero)
};

/// Parses a condenser name ("add_cells", "avg_cells", ...).
Result<AggregateOp> AggregateOpFromName(std::string_view name);
std::string_view AggregateOpToName(AggregateOp op);

/// Reduces all cells of `array` with `op`, widening to double. Supported
/// for the numeric built-in cell types (not rgb8/opaque). `kAvg` of an
/// array is sum/count; `kCount` counts non-zero cells.
///
/// Every kernel in this header returns the bits of the in-order loop that
/// widens each cell to double and folds it one at a time, without running
/// that loop (core/cell_accumulators.h). Integer cells of at most 32 bits
/// are summed in an int64_t and converted once when
/// `cells <= 2^(53 - 8 * sizeof(T))` (every partial sum of the double loop
/// is then an exact integer below 2^53; a 64 KiB tile always qualifies);
/// 64-bit integers, floats and larger counts keep the in-order double
/// loop. Integer min/max fold in the cell type and widen once (the
/// widening is monotone). The path depends only on cell type and count.
Result<double> AggregateCells(const Array& array, AggregateOp op);

/// Reduces the cells of `region` inside `array` with `op`, without
/// materializing a slice: the reduction walks the innermost-axis runs the
/// copy kernels enumerate (`ForEachRun`), one contiguous span per run.
/// The cells and their row-major order are those of `array.Slice(region)`
/// and the exactness rule (and its `2^(53 - 8 * sizeof(T))` bound, counted
/// in region cells) is `AggregateCells`'s, so the result is bit-identical
/// to `AggregateCells(*array.Slice(region), op)` while skipping the slice
/// allocation and copy. `region` must be fixed and contained in
/// `array.domain()`; numeric cell types only. `kAvg` divides by the region
/// cell count.
Result<double> AggregateRegion(const Array& array, const MInterval& region,
                               AggregateOp op);

/// Reduces a whole RLE-compressed tile directly over the runs of the
/// compressed stream (`Compression::kRle`, the PackBits byte codec of
/// storage/compression.h), without materializing the decoded buffer:
/// literal bytes and short repeats are assembled into cells in a small
/// register buffer; a repeat run of `n` whole cells of value `v` reduces
/// in one step — `v * n` for the exact integer sum, one fold for
/// min/max/count — and only the in-order double sum (over the bound of
/// `AggregateCells`, or for 64-bit and float cells) still adds it `n`
/// times. Cells reach the accumulators of `AggregateCells` in linear
/// (decode) order, so the result is bit-identical to decoding and
/// reducing. `cell_count` is the tile's
/// cell count (known from its domain); the stream must decode to exactly
/// `cell_count * cell_type.size()` bytes (Corruption otherwise). Numeric
/// cell types only; `kAvg` divides by `cell_count`.
Result<double> AggregateRleStream(const std::vector<uint8_t>& stream,
                                  CellType cell_type, uint64_t cell_count,
                                  AggregateOp op);

/// Running fold of one aggregate over values arriving in order — how
/// per-tile partials become a query's answer. `Add(value, n)` folds `n`
/// cells whose reduction under the fold's op is `value` (for kAvg: their
/// sum), and `AddUniform(v, n)` `n` cells all holding `v`. `Value()` is
/// the aggregate over every folded cell, and 0 when there is none (an
/// aggregate over the empty set has no natural min/max/avg).
class AggregateFold {
 public:
  explicit AggregateFold(AggregateOp op) : op_(op) {}

  void Add(double value, uint64_t n) {
    cells_ += n;
    switch (op_) {
      case AggregateOp::kSum:
      case AggregateOp::kAvg:
        sum_ += value;
        break;
      case AggregateOp::kMin:
        min_ = std::min(min_, value);
        break;
      case AggregateOp::kMax:
        max_ = std::max(max_, value);
        break;
      case AggregateOp::kCount:
        nonzero_ += value;
        break;
    }
  }
  void AddUniform(double v, uint64_t n) {
    const double count = static_cast<double>(n);
    switch (op_) {
      case AggregateOp::kSum:
      case AggregateOp::kAvg:
        return Add(v * count, n);
      case AggregateOp::kCount:
        return Add(v != 0.0 ? count : 0.0, n);
      case AggregateOp::kMin:
      case AggregateOp::kMax:
        return Add(v, n);
    }
  }

  double Value() const {
    if (cells_ == 0) return 0.0;
    switch (op_) {
      case AggregateOp::kSum:
        return sum_;
      case AggregateOp::kAvg:
        return sum_ / static_cast<double>(cells_);
      case AggregateOp::kMin:
        return min_;
      case AggregateOp::kMax:
        return max_;
      case AggregateOp::kCount:
        return nonzero_;
    }
    return 0.0;
  }
  uint64_t cells() const { return cells_; }

 private:
  AggregateOp op_;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double nonzero_ = 0;
  uint64_t cells_ = 0;
};

/// Interprets one cell (`cell_type.size()` bytes at `cell`) as a double.
/// Used to fold an object's default cell value into aggregations over
/// partially covered regions. Numeric built-in types only.
Result<double> CellValueAsDouble(CellType cell_type, const uint8_t* cell);

}  // namespace tilestore

#endif  // TILESTORE_CORE_AGGREGATE_H_

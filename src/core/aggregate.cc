#include "core/aggregate.h"

#include <cstring>

#include "core/cell_accumulators.h"
#include "core/linearizer.h"
#include "core/rle_cells.h"

namespace tilestore {

namespace {

// Reduces `cells` cells with `op`: `walk(acc)` feeds every cell to the
// accumulator `WithAccumulator` picked and returns its status.
template <typename T, typename Walk>
Result<double> ReduceCells(AggregateOp op, uint64_t cells, Walk&& walk) {
  Result<double> value = 0.0;
  WithAccumulator<T>(op, cells, [&](auto acc) {
    Status st = walk(acc);
    if (st.ok()) {
      value = acc.Value();
    } else {
      value = st;
    }
  });
  if (value.ok() && op == AggregateOp::kAvg) {
    return *value / static_cast<double>(cells);
  }
  return value;
}

// Whole-array reduction: one span.
template <typename T>
Result<double> Reduce(const Array& array, AggregateOp op) {
  const T* cells = reinterpret_cast<const T*>(array.data());
  const uint64_t n = array.cell_count();
  return ReduceCells<T>(op, n, [&](auto& acc) {
    acc.Span(cells, n);
    return Status::OK();
  });
}

// Run-based reduction over `region` inside `array` without a slice copy:
// one span per innermost-axis run, in row-major region order — the cells
// and order of `Reduce<T>` over `array.Slice(region)`, so the result is
// bit-identical to the slice kernel.
template <typename T>
Result<double> ReduceRegionRuns(const Array& array, const MInterval& region,
                                AggregateOp op) {
  const T* cells = reinterpret_cast<const T*>(array.data());
  const uint64_t run =
      static_cast<uint64_t>(region.Extent(region.dim() - 1));
  const MInterval& domain = array.domain();
  return ReduceCells<T>(op, region.CellCountOrDie(), [&](auto& acc) {
    ForEachRun(domain, domain, region,
               [&](uint64_t off, uint64_t) { acc.Span(cells + off, run); });
    return Status::OK();
  });
}

// Streaming reduction over a PackBits RLE stream, in decode order. A
// repeat run spanning whole cells reaches the accumulator as one
// `Repeat(v, n)`: the exact integer sum adds `v * n` in one step,
// min/max/count fold it once (folding one value n times equals folding it
// once for those ops), and only the in-order double sum still adds per
// cell.
template <typename T>
Result<double> ReduceRleStream(const std::vector<uint8_t>& stream,
                               uint64_t cell_count, AggregateOp op) {
  return ReduceCells<T>(op, cell_count, [&](auto& acc) {
    return ForEachRleCell(stream, sizeof(T), cell_count,
                          [&](const uint8_t* cell, uint64_t n) {
                            T v;
                            std::memcpy(&v, cell, sizeof(T));
                            acc.Repeat(v, n);
                          });
  });
}

Status NotNumeric(CellType cell_type) {
  return Status::InvalidArgument(
      "cell type does not support numeric aggregation: " +
      std::string(cell_type.name()));
}

struct OpName {
  AggregateOp op;
  std::string_view name;
};

constexpr OpName kOpNames[] = {
    {AggregateOp::kSum, "add_cells"},   {AggregateOp::kMin, "min_cells"},
    {AggregateOp::kMax, "max_cells"},   {AggregateOp::kAvg, "avg_cells"},
    {AggregateOp::kCount, "count_cells"},
};

}  // namespace

Result<AggregateOp> AggregateOpFromName(std::string_view name) {
  for (const OpName& entry : kOpNames) {
    if (entry.name == name) return entry.op;
  }
  return Status::NotFound("unknown condenser '" + std::string(name) + "'");
}

std::string_view AggregateOpToName(AggregateOp op) {
  for (const OpName& entry : kOpNames) {
    if (entry.op == op) return entry.name;
  }
  return "unknown";
}

Result<double> CellValueAsDouble(CellType cell_type, const uint8_t* cell) {
  double value = 0;
  const bool numeric = VisitNumericCellType(cell_type.id(), [&](auto t) {
    decltype(t) v;
    std::memcpy(&v, cell, sizeof(v));
    value = static_cast<double>(v);
  });
  if (!numeric) {
    return Status::InvalidArgument(
        "cell type does not support numeric interpretation: " +
        std::string(cell_type.name()));
  }
  return value;
}

Result<double> AggregateCells(const Array& array, AggregateOp op) {
  if (array.cell_count() == 0) {
    return Status::InvalidArgument("aggregate of empty array");
  }
  Result<double> value = 0.0;
  if (!VisitNumericCellType(array.cell_type().id(), [&](auto t) {
        value = Reduce<decltype(t)>(array, op);
      })) {
    return NotNumeric(array.cell_type());
  }
  return value;
}

Result<double> AggregateRegion(const Array& array, const MInterval& region,
                               AggregateOp op) {
  if (region.dim() != array.domain().dim() || !region.IsFixed() ||
      !array.domain().Contains(region)) {
    return Status::InvalidArgument("aggregate region " + region.ToString() +
                                   " not inside array domain " +
                                   array.domain().ToString());
  }
  Result<double> value = 0.0;
  if (!VisitNumericCellType(array.cell_type().id(), [&](auto t) {
        value = ReduceRegionRuns<decltype(t)>(array, region, op);
      })) {
    return NotNumeric(array.cell_type());
  }
  return value;
}

Result<double> AggregateRleStream(const std::vector<uint8_t>& stream,
                                  CellType cell_type, uint64_t cell_count,
                                  AggregateOp op) {
  if (cell_count == 0) {
    return Status::InvalidArgument("aggregate of empty array");
  }
  Result<double> value = 0.0;
  if (!VisitNumericCellType(cell_type.id(), [&](auto t) {
        value = ReduceRleStream<decltype(t)>(stream, cell_count, op);
      })) {
    return NotNumeric(cell_type);
  }
  return value;
}

}  // namespace tilestore

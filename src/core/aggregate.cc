#include "core/aggregate.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/linearizer.h"
#include "core/rle_cells.h"

namespace tilestore {

namespace {

template <typename T>
double Reduce(const Array& array, AggregateOp op) {
  const T* cells = reinterpret_cast<const T*>(array.data());
  const uint64_t n = array.cell_count();
  switch (op) {
    case AggregateOp::kSum:
    case AggregateOp::kAvg: {
      double sum = 0;
      for (uint64_t i = 0; i < n; ++i) sum += static_cast<double>(cells[i]);
      return op == AggregateOp::kSum ? sum
                                     : sum / static_cast<double>(n);
    }
    case AggregateOp::kMin: {
      double best = std::numeric_limits<double>::infinity();
      for (uint64_t i = 0; i < n; ++i) {
        best = std::min(best, static_cast<double>(cells[i]));
      }
      return best;
    }
    case AggregateOp::kMax: {
      double best = -std::numeric_limits<double>::infinity();
      for (uint64_t i = 0; i < n; ++i) {
        best = std::max(best, static_cast<double>(cells[i]));
      }
      return best;
    }
    case AggregateOp::kCount: {
      uint64_t count = 0;
      for (uint64_t i = 0; i < n; ++i) {
        if (cells[i] != static_cast<T>(0)) ++count;
      }
      return static_cast<double>(count);
    }
  }
  return 0;
}

// Run-based reduction over `region` inside `array` without a slice copy.
// The accumulators and visit order are exactly those of `Reduce<T>` over
// `array.Slice(region)` (row-major region order, doubles for sum/min/max,
// uint64 for count), so the result is bit-identical to the slice kernel.
template <typename T>
double ReduceRegionRuns(const Array& array, const MInterval& region,
                        AggregateOp op) {
  const T* cells = reinterpret_cast<const T*>(array.data());
  const uint64_t run =
      static_cast<uint64_t>(region.Extent(region.dim() - 1));
  const MInterval& domain = array.domain();
  switch (op) {
    case AggregateOp::kSum:
    case AggregateOp::kAvg: {
      double sum = 0;
      ForEachRun(domain, domain, region, [&](uint64_t off, uint64_t) {
        for (uint64_t c = 0; c < run; ++c) {
          sum += static_cast<double>(cells[off + c]);
        }
      });
      return op == AggregateOp::kSum
                 ? sum
                 : sum / static_cast<double>(region.CellCountOrDie());
    }
    case AggregateOp::kMin: {
      double best = std::numeric_limits<double>::infinity();
      ForEachRun(domain, domain, region, [&](uint64_t off, uint64_t) {
        for (uint64_t c = 0; c < run; ++c) {
          best = std::min(best, static_cast<double>(cells[off + c]));
        }
      });
      return best;
    }
    case AggregateOp::kMax: {
      double best = -std::numeric_limits<double>::infinity();
      ForEachRun(domain, domain, region, [&](uint64_t off, uint64_t) {
        for (uint64_t c = 0; c < run; ++c) {
          best = std::max(best, static_cast<double>(cells[off + c]));
        }
      });
      return best;
    }
    case AggregateOp::kCount: {
      uint64_t count = 0;
      ForEachRun(domain, domain, region, [&](uint64_t off, uint64_t) {
        for (uint64_t c = 0; c < run; ++c) {
          if (cells[off + c] != static_cast<T>(0)) ++count;
        }
      });
      return static_cast<double>(count);
    }
  }
  return 0;
}

// Streaming reduction over a PackBits RLE stream. Cells are folded in
// decode order with `Reduce<T>`'s accumulators; repeat runs spanning whole
// cells fold without touching memory (sum still adds per cell — the adds
// must happen in the legacy order for bit-identity — but min/max/count
// collapse to one operation per run, which is exact: folding one value n
// times equals folding it once for those ops).
template <typename T>
Result<double> ReduceRleStream(const std::vector<uint8_t>& stream,
                               uint64_t cell_count, AggregateOp op) {
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  uint64_t nonzero = 0;
  Status st = ForEachRleCell(
      stream, sizeof(T), cell_count, [&](const uint8_t* cell, uint64_t n) {
        T v;
        std::memcpy(&v, cell, sizeof(T));
        switch (op) {
          case AggregateOp::kSum:
          case AggregateOp::kAvg:
            for (uint64_t w = 0; w < n; ++w) sum += static_cast<double>(v);
            break;
          case AggregateOp::kMin:
            min = std::min(min, static_cast<double>(v));
            break;
          case AggregateOp::kMax:
            max = std::max(max, static_cast<double>(v));
            break;
          case AggregateOp::kCount:
            if (v != static_cast<T>(0)) nonzero += n;
            break;
        }
      });
  if (!st.ok()) return st;
  switch (op) {
    case AggregateOp::kSum:
      return sum;
    case AggregateOp::kAvg:
      return sum / static_cast<double>(cell_count);
    case AggregateOp::kMin:
      return min;
    case AggregateOp::kMax:
      return max;
    case AggregateOp::kCount:
      return static_cast<double>(nonzero);
  }
  return Status::Internal("unhandled aggregate op");
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
  double value = 0;
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
  double value = 0;
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

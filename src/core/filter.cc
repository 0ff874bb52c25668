#include "core/filter.h"

#include <algorithm>
#include <cstring>

#include "core/linearizer.h"
#include "core/rle_cells.h"

namespace tilestore {

namespace {

Status NotNumeric(CellType cell_type) {
  return Status::InvalidArgument(
      "filtered query needs a numeric cell type, not " +
      std::string(cell_type.name()));
}

template <typename T>
void FilterRuns(const Array& tile, const MInterval& part,
                const ValuePredicate& pred, Array* result) {
  const T* src = reinterpret_cast<const T*>(tile.data());
  T* dst = reinterpret_cast<T*>(result->mutable_data());
  const uint64_t run = static_cast<uint64_t>(part.Extent(part.dim() - 1));
  ForEachRun(tile.domain(), result->domain(), part,
             [&](uint64_t src_off, uint64_t dst_off) {
               for (uint64_t c = 0; c < run; ++c) {
                 const T v = src[src_off + c];
                 if (pred.Matches(static_cast<double>(v))) dst[dst_off + c] = v;
               }
             });
}

template <typename T>
Result<uint64_t> FilterRle(const std::vector<uint8_t>& stream,
                           const MInterval& tile_domain,
                           const ValuePredicate& pred, Array* result) {
  // Linear tile cell k lives in innermost-axis run k / L at offset k % L;
  // the runs' destination offsets are precomputed once.
  const uint64_t run_len =
      static_cast<uint64_t>(tile_domain.Extent(tile_domain.dim() - 1));
  std::vector<uint64_t> dst_runs;
  dst_runs.reserve(tile_domain.CellCountOrDie() / run_len);
  ForEachRun(tile_domain, result->domain(), tile_domain,
             [&](uint64_t, uint64_t dst) { dst_runs.push_back(dst); });
  T* dst = reinterpret_cast<T*>(result->mutable_data());
  uint64_t cell_index = 0;
  uint64_t matched = 0;
  Status st = ForEachRleCell(
      stream, sizeof(T), tile_domain.CellCountOrDie(),
      [&](const uint8_t* cell, uint64_t n) {
        T v;
        std::memcpy(&v, cell, sizeof(T));
        if (pred.Matches(static_cast<double>(v))) {
          matched += n;
          for (uint64_t k = cell_index, end = cell_index + n; k < end;) {
            const uint64_t in_run = std::min(end - k, run_len - k % run_len);
            std::fill_n(dst + dst_runs[k / run_len] + k % run_len, in_run, v);
            k += in_run;
          }
        }
        cell_index += n;
      });
  if (!st.ok()) return st;
  return matched;
}

template <typename T>
MatchingAggregate ReduceMatching(const Array& array, const MInterval& part,
                                 const ValuePredicate& pred, AggregateOp op) {
  const T* cells = reinterpret_cast<const T*>(array.data());
  const uint64_t run = static_cast<uint64_t>(part.Extent(part.dim() - 1));
  AggregateFold fold(op);
  ForEachRun(array.domain(), array.domain(), part,
             [&](uint64_t off, uint64_t) {
               for (uint64_t c = 0; c < run; ++c) {
                 const double v = static_cast<double>(cells[off + c]);
                 if (pred.Matches(v)) fold.AddCell(v);
               }
             });
  return MatchingAggregate{fold.Value(), fold.cells()};
}

}  // namespace

Status FilterRegionInto(const Array& tile, const MInterval& part,
                        const ValuePredicate& pred, Array* result) {
  if (tile.cell_type() != result->cell_type()) {
    return Status::InvalidArgument(
        "filter source and result cell types differ");
  }
  if (!VisitNumericCellType(tile.cell_type().id(), [&](auto t) {
        FilterRuns<decltype(t)>(tile, part, pred, result);
      })) {
    return NotNumeric(tile.cell_type());
  }
  return Status::OK();
}

Result<uint64_t> FilterRleStreamInto(const std::vector<uint8_t>& stream,
                                     const MInterval& tile_domain,
                                     const ValuePredicate& pred,
                                     Array* result) {
  Result<uint64_t> matched = uint64_t{0};
  if (!VisitNumericCellType(result->cell_type().id(), [&](auto t) {
        matched = FilterRle<decltype(t)>(stream, tile_domain, pred, result);
      })) {
    return NotNumeric(result->cell_type());
  }
  return matched;
}

Result<MatchingAggregate> AggregateMatching(const Array& array,
                                            const MInterval& part,
                                            const ValuePredicate& pred,
                                            AggregateOp op) {
  MatchingAggregate out;
  if (!VisitNumericCellType(array.cell_type().id(), [&](auto t) {
        out = ReduceMatching<decltype(t)>(array, part, pred, op);
      })) {
    return NotNumeric(array.cell_type());
  }
  return out;
}

}  // namespace tilestore

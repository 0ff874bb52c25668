#include "core/filter.h"

#include <algorithm>
#include <cstring>

#include "core/cell_accumulators.h"
#include "core/linearizer.h"
#include "core/rle_cells.h"

namespace tilestore {

namespace {

Status NotNumeric(CellType cell_type) {
  return Status::InvalidArgument(
      "filtered query needs a numeric cell type, not " +
      std::string(cell_type.name()));
}

// Each cell of a run is written back: the matching value or the bytes it
// already held. The select has no branch, and `part` belongs to this tile
// alone, so concurrent consumers still write disjoint cells.
template <typename T, typename Match>
void FilterRuns(const Array& tile, const MInterval& part, Match match,
                Array* result) {
  const T* src = reinterpret_cast<const T*>(tile.data());
  T* dst = reinterpret_cast<T*>(result->mutable_data());
  const uint64_t run = static_cast<uint64_t>(part.Extent(part.dim() - 1));
  ForEachRun(tile.domain(), result->domain(), part,
             [&](uint64_t src_off, uint64_t dst_off) {
               const T* in = src + src_off;
               T* out = dst + dst_off;
               for (uint64_t c = 0; c < run; ++c) {
                 const T v = in[c];
                 out[c] = match(static_cast<double>(v)) ? v : out[c];
               }
             });
}

template <typename T, typename Match>
Result<uint64_t> FilterRle(const std::vector<uint8_t>& stream,
                           const MInterval& tile_domain, Match match,
                           Array* result) {
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
        if (match(static_cast<double>(v))) {
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

// The accumulators of `AggregateRegion` (core/cell_accumulators.h), fed
// only the matching cells: when every cell matches, the value is
// bit-identical to `AggregateRegion`, and in general to folding the
// matching cells one by one through `AggregateFold`.
template <typename T, typename Match>
MatchingAggregate ReduceMatching(const Array& array, const MInterval& part,
                                 Match match, AggregateOp op) {
  const T* cells = reinterpret_cast<const T*>(array.data());
  const uint64_t run = static_cast<uint64_t>(part.Extent(part.dim() - 1));
  MatchingAggregate out;
  WithAccumulator<T>(op, part.CellCountOrDie(), [&](auto acc) {
    uint64_t matched = 0;
    ForEachRun(array.domain(), array.domain(), part,
               [&](uint64_t off, uint64_t) {
                 matched += acc.SpanMatching(cells + off, run, match);
               });
    if (matched == 0) return;
    out.cells = matched;
    out.value = acc.Value();
    if (op == AggregateOp::kAvg) out.value /= static_cast<double>(matched);
  });
  return out;
}

}  // namespace

Status FilterRegionInto(const Array& tile, const MInterval& part,
                        const ValuePredicate& pred, Array* result) {
  if (tile.cell_type() != result->cell_type()) {
    return Status::InvalidArgument(
        "filter source and result cell types differ");
  }
  if (!VisitNumericCellType(tile.cell_type().id(), [&](auto t) {
        pred.WithMatcher([&](auto match) {
          FilterRuns<decltype(t)>(tile, part, match, result);
        });
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
        pred.WithMatcher([&](auto match) {
          matched = FilterRle<decltype(t)>(stream, tile_domain, match, result);
        });
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
        pred.WithMatcher([&](auto match) {
          out = ReduceMatching<decltype(t)>(array, part, match, op);
        });
      })) {
    return NotNumeric(array.cell_type());
  }
  return out;
}

}  // namespace tilestore

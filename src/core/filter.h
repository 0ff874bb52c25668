#ifndef TILESTORE_CORE_FILTER_H_
#define TILESTORE_CORE_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/aggregate.h"
#include "core/array.h"
#include "core/minterval.h"
#include "core/predicate.h"

namespace tilestore {

/// Cell kernels of filtered queries (DESIGN.md §15): the per-tile half of
/// predicate pushdown, applied to tiles the summaries could not decide.
/// Cells are widened to double before the comparison, exactly like the
/// aggregation kernels, so a predicate means the same thing for every
/// numeric cell type. Numeric cell types only (InvalidArgument otherwise).

/// Copies the cells of `part` in `tile` that satisfy `pred` into `result`
/// (same cell type; `part` inside both domains); every other cell of
/// `result` keeps its bytes.
Status FilterRegionInto(const Array& tile, const MInterval& part,
                        const ValuePredicate& pred, Array* result);

/// `FilterRegionInto` for a whole tile stored as a PackBits RLE stream
/// (`tile_domain` inside `result->domain()`), tested straight off the
/// compressed runs: a repeat run of non-matching cells costs one
/// comparison and no decoded buffer is built. Returns the number of
/// matching cells.
Result<uint64_t> FilterRleStreamInto(const std::vector<uint8_t>& stream,
                                     const MInterval& tile_domain,
                                     const ValuePredicate& pred,
                                     Array* result);

/// Reduces the cells of `part` in `array` that satisfy `pred` with `op`,
/// in the row-major order and with the accumulation of `AggregateRegion`
/// — so when every cell matches, `value` is bit-identical to it. `cells`
/// counts the matching cells; `value` is 0 when none match.
struct MatchingAggregate {
  double value = 0;
  uint64_t cells = 0;
};
Result<MatchingAggregate> AggregateMatching(const Array& array,
                                            const MInterval& part,
                                            const ValuePredicate& pred,
                                            AggregateOp op);

}  // namespace tilestore

#endif  // TILESTORE_CORE_FILTER_H_

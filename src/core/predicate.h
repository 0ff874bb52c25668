#ifndef TILESTORE_CORE_PREDICATE_H_
#define TILESTORE_CORE_PREDICATE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace tilestore {

/// \brief A value predicate over array cells — the filter of a
/// "cells where v < c inside this box" query (DESIGN.md §15).
///
/// Four comparison shapes cover the served surface:
///   kLess     v <  a
///   kGreater  v >  a
///   kBetween  a <= v <= b   (closed on both ends)
///   kEqual    v == a
///
/// Cells are compared after widening to double, exactly like the
/// aggregation kernels — so the predicate means the same thing for every
/// numeric cell type, and a tile summary's min/max (also doubles) can
/// answer "could any cell match?" without decoding the tile. Non-numeric
/// cell types (rgb8, opaque) cannot be filtered.
struct ValuePredicate {
  enum class Kind : uint8_t { kLess = 0, kGreater = 1, kBetween = 2,
                              kEqual = 3 };

  Kind kind = Kind::kLess;
  double a = 0;  // the constant; the lower bound for kBetween
  double b = 0;  // the upper bound (kBetween only)

  /// True when the (widened) cell value satisfies the predicate. NaN
  /// never matches any comparison.
  bool Matches(double v) const {
    bool match = false;
    WithMatcher([&](auto m) { match = m(v); });
    return match;
  }

  /// Calls `fn(match)` with a `match(double) -> bool` specialised to this
  /// predicate's kind — the one definition of each comparison — so a cell
  /// kernel switches on the kind once per call instead of once per cell.
  template <typename Fn>
  void WithMatcher(Fn&& fn) const {
    const double lo = a;
    const double hi = b;
    switch (kind) {
      case Kind::kLess:    return fn([lo](double v) { return v < lo; });
      case Kind::kGreater: return fn([lo](double v) { return v > lo; });
      case Kind::kBetween:
        return fn([lo, hi](double v) { return v >= lo && v <= hi; });
      case Kind::kEqual:   return fn([lo](double v) { return v == lo; });
    }
    return fn([](double) { return false; });
  }

  /// Structural validity: kBetween needs a <= b; constants must not be
  /// NaN (a NaN bound matches nothing and is always a caller bug).
  Status Validate() const;

  /// Round-trips through `Parse`: "v<10", "v>2.5", "v in [2,5]", "v==3".
  std::string ToString() const;

  /// Parses the textual forms the CLI and loadgen accept (whitespace
  /// tolerated): "v<C", "v>C", "v==C", "v in [A,B]".
  static Result<ValuePredicate> Parse(std::string_view text);

  bool operator==(const ValuePredicate&) const = default;
};

}  // namespace tilestore

#endif  // TILESTORE_CORE_PREDICATE_H_

#ifndef TILESTORE_CORE_CELL_ACCUMULATORS_H_
#define TILESTORE_CORE_CELL_ACCUMULATORS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "core/aggregate.h"

namespace tilestore {

/// \file
/// Per-cell-type accumulators behind the condensing kernels
/// (core/aggregate.cc, core/filter.cc): the t_cpu consume step of an
/// aggregate query. An accumulator sees cells in row-major / decode order
/// as contiguous spans (`Span`, or `SpanMatching` to fold only the cells a
/// predicate accepts, returning how many it accepted) or as runs of one
/// repeated value (`Repeat`), and reports the reduction widened to double
/// (`Value`). None of them dispatches per cell, and only `DoubleSum` keeps
/// a floating-point chain whose order matters; every other one gives the
/// bits of the in-order double loop by construction:
///
///  - **Sum/avg, exact integer path.** Integer cells of at most 32 bits
///    are summed in an int64_t and converted once, but only when
///    `cells * max|T| < 2^53`, i.e. `cells <= 2^(53 - 8 * sizeof(T))`.
///    Under that bound every partial sum of the in-order double loop is an
///    integer below 2^53, so each of its adds is exact and its result has
///    the bits of the integer sum. A 64 KiB tile always meets the bound
///    (for uint32 it is 2^21 cells, 8 MiB). 64-bit integers, floats and
///    counts over the bound keep the in-order double loop.
///  - **Min/max** fold integer cells in T and convert once: conversion to
///    double is monotone, so this equals folding the widened cells.
///    Floating-point cells fold as doubles.
///  - **Count** of non-zero cells is an integer count.
///
/// The path is chosen only by cell type and cell count (`WithAccumulator`).

template <typename T>
constexpr bool kIntegerSummable = std::is_integral_v<T> && sizeof(T) <= 4;

/// Whether `cells` cells of type T may take the exact integer sum.
template <typename T>
bool SumIsExactInInt64(uint64_t cells) {
  static_assert(kIntegerSummable<T>);
  return cells <= (uint64_t{1} << (53 - 8 * sizeof(T)));
}

/// The exact integer sum; valid only under `SumIsExactInInt64`.
template <typename T>
struct IntegerSum {
  int64_t sum = 0;
  void Span(const T* cells, uint64_t n) {
    int64_t s = 0;
    for (uint64_t i = 0; i < n; ++i) s += cells[i];
    sum += s;
  }
  template <typename Match>
  uint64_t SpanMatching(const T* cells, uint64_t n, Match match) {
    int64_t s = 0;
    uint64_t matched = 0;
    for (uint64_t i = 0; i < n; ++i) {
      const bool m = match(static_cast<double>(cells[i]));
      s += m ? static_cast<int64_t>(cells[i]) : 0;
      matched += m;
    }
    sum += s;
    return matched;
  }
  void Repeat(T v, uint64_t n) {
    sum += static_cast<int64_t>(v) * static_cast<int64_t>(n);
  }
  double Value() const { return static_cast<double>(sum); }
};

/// The in-order double sum.
template <typename T>
struct DoubleSum {
  double sum = 0;
  void Span(const T* cells, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) sum += static_cast<double>(cells[i]);
  }
  template <typename Match>
  uint64_t SpanMatching(const T* cells, uint64_t n, Match match) {
    uint64_t matched = 0;
    for (uint64_t i = 0; i < n; ++i) {
      const double v = static_cast<double>(cells[i]);
      if (match(v)) {
        sum += v;
        ++matched;
      }
    }
    return matched;
  }
  void Repeat(T v, uint64_t n) {
    for (uint64_t w = 0; w < n; ++w) sum += static_cast<double>(v);
  }
  double Value() const { return sum; }
};

/// Min (`kMax == false`) or max fold. `Value` needs one folded cell.
template <typename T, bool kMax>
struct ExtremumFold {
  using Acc = std::conditional_t<std::is_integral_v<T>, T, double>;
  static Acc Better(Acc a, Acc b) {
    return kMax ? std::max(a, b) : std::min(a, b);
  }
  Acc best = std::numeric_limits<Acc>::has_infinity
                 ? (kMax ? -std::numeric_limits<Acc>::infinity()
                         : std::numeric_limits<Acc>::infinity())
                 : (kMax ? std::numeric_limits<Acc>::lowest()
                         : std::numeric_limits<Acc>::max());
  void Span(const T* cells, uint64_t n) {
    Acc b = best;
    for (uint64_t i = 0; i < n; ++i) b = Better(b, static_cast<Acc>(cells[i]));
    best = b;
  }
  template <typename Match>
  uint64_t SpanMatching(const T* cells, uint64_t n, Match match) {
    Acc b = best;
    uint64_t matched = 0;
    for (uint64_t i = 0; i < n; ++i) {
      const bool m = match(static_cast<double>(cells[i]));
      b = m ? Better(b, static_cast<Acc>(cells[i])) : b;
      matched += m;
    }
    best = b;
    return matched;
  }
  void Repeat(T v, uint64_t) { best = Better(best, static_cast<Acc>(v)); }
  double Value() const { return static_cast<double>(best); }
};

/// Count of non-zero cells.
template <typename T>
struct NonzeroCount {
  uint64_t count = 0;
  void Span(const T* cells, uint64_t n) {
    uint64_t c = 0;
    for (uint64_t i = 0; i < n; ++i) c += cells[i] != static_cast<T>(0);
    count += c;
  }
  template <typename Match>
  uint64_t SpanMatching(const T* cells, uint64_t n, Match match) {
    uint64_t c = 0;
    uint64_t matched = 0;
    for (uint64_t i = 0; i < n; ++i) {
      const bool m = match(static_cast<double>(cells[i]));
      c += m && cells[i] != static_cast<T>(0);
      matched += m;
    }
    count += c;
    return matched;
  }
  void Repeat(T v, uint64_t n) {
    if (v != static_cast<T>(0)) count += n;
  }
  double Value() const { return static_cast<double>(count); }
};

/// Calls `fn(acc)` with a fresh accumulator for `op` over at most `cells`
/// cells of type T (kAvg accumulates the sum; the caller divides).
template <typename T, typename Fn>
void WithAccumulator(AggregateOp op, uint64_t cells, Fn&& fn) {
  switch (op) {
    case AggregateOp::kSum:
    case AggregateOp::kAvg:
      if constexpr (kIntegerSummable<T>) {
        if (SumIsExactInInt64<T>(cells)) return fn(IntegerSum<T>{});
      }
      return fn(DoubleSum<T>{});
    case AggregateOp::kMin:
      return fn(ExtremumFold<T, false>{});
    case AggregateOp::kMax:
      return fn(ExtremumFold<T, true>{});
    case AggregateOp::kCount:
      return fn(NonzeroCount<T>{});
  }
}

}  // namespace tilestore

#endif  // TILESTORE_CORE_CELL_ACCUMULATORS_H_

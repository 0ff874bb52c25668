#ifndef TILESTORE_CORE_CELL_TYPE_H_
#define TILESTORE_CORE_CELL_TYPE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace tilestore {

/// Identifiers of the built-in base types. `kOpaque` covers user-defined
/// fixed-size structs (the storage manager only ever needs the cell size;
/// per Section 2 of the paper, treatment is uniform across cell types).
enum class CellTypeId : uint8_t {
  kUInt8 = 0,
  kInt8 = 1,
  kUInt16 = 2,
  kInt16 = 3,
  kUInt32 = 4,
  kInt32 = 5,
  kUInt64 = 6,
  kInt64 = 7,
  kFloat32 = 8,
  kFloat64 = 9,
  kRGB8 = 10,   // 3 x uint8, the animation benchmark's cell type
  kOpaque = 11,
};

/// \brief Describes the base type T of MDD cells: an id, a byte size, and a
/// display name. Value type; compare by id+size.
class CellType {
 public:
  /// Default: 1-byte opaque cells.
  CellType() : id_(CellTypeId::kOpaque), size_(1) {}

  /// Built-in type of the given id (not kOpaque).
  static CellType Of(CellTypeId id);

  /// An application-defined fixed-size cell (e.g. a 4-field OLAP measure).
  static CellType Opaque(size_t size);

  /// Looks a built-in type up by name ("uint8", "float64", "rgb8", ...).
  static Result<CellType> FromName(std::string_view name);

  CellTypeId id() const { return id_; }
  size_t size() const { return size_; }
  std::string_view name() const;

  bool operator==(const CellType& other) const {
    return id_ == other.id_ && size_ == other.size_;
  }
  bool operator!=(const CellType& other) const { return !(*this == other); }

 private:
  CellType(CellTypeId id, size_t size) : id_(id), size_(size) {}

  CellTypeId id_;
  size_t size_;
};

/// Maps C++ scalar types to their CellTypeId at compile time, so typed
/// accessors can verify the element type they are reinterpreting.
template <typename T>
struct CellTypeTraits;

template <> struct CellTypeTraits<uint8_t> {
  static constexpr CellTypeId kId = CellTypeId::kUInt8;
};
template <> struct CellTypeTraits<int8_t> {
  static constexpr CellTypeId kId = CellTypeId::kInt8;
};
template <> struct CellTypeTraits<uint16_t> {
  static constexpr CellTypeId kId = CellTypeId::kUInt16;
};
template <> struct CellTypeTraits<int16_t> {
  static constexpr CellTypeId kId = CellTypeId::kInt16;
};
template <> struct CellTypeTraits<uint32_t> {
  static constexpr CellTypeId kId = CellTypeId::kUInt32;
};
template <> struct CellTypeTraits<int32_t> {
  static constexpr CellTypeId kId = CellTypeId::kInt32;
};
template <> struct CellTypeTraits<uint64_t> {
  static constexpr CellTypeId kId = CellTypeId::kUInt64;
};
template <> struct CellTypeTraits<int64_t> {
  static constexpr CellTypeId kId = CellTypeId::kInt64;
};
template <> struct CellTypeTraits<float> {
  static constexpr CellTypeId kId = CellTypeId::kFloat32;
};
template <> struct CellTypeTraits<double> {
  static constexpr CellTypeId kId = CellTypeId::kFloat64;
};

/// Calls `fn(T{})` with the C++ scalar type `T` of a numeric cell type
/// and returns true; returns false without calling `fn` for rgb8 and
/// opaque. The one place a numeric kernel is instantiated per cell type.
template <typename Fn>
bool VisitNumericCellType(CellTypeId id, Fn&& fn) {
  switch (id) {
    case CellTypeId::kUInt8:   fn(uint8_t{});  return true;
    case CellTypeId::kInt8:    fn(int8_t{});   return true;
    case CellTypeId::kUInt16:  fn(uint16_t{}); return true;
    case CellTypeId::kInt16:   fn(int16_t{});  return true;
    case CellTypeId::kUInt32:  fn(uint32_t{}); return true;
    case CellTypeId::kInt32:   fn(int32_t{});  return true;
    case CellTypeId::kUInt64:  fn(uint64_t{}); return true;
    case CellTypeId::kInt64:   fn(int64_t{});  return true;
    case CellTypeId::kFloat32: fn(float{});    return true;
    case CellTypeId::kFloat64: fn(double{});   return true;
    case CellTypeId::kRGB8:
    case CellTypeId::kOpaque:
      return false;
  }
  return false;
}

/// An RGB pixel, the cell type of the animation benchmark (Table 5).
struct RGB8 {
  uint8_t r = 0;
  uint8_t g = 0;
  uint8_t b = 0;
  bool operator==(const RGB8&) const = default;
};
static_assert(sizeof(RGB8) == 3, "RGB8 must be exactly 3 bytes");

template <> struct CellTypeTraits<RGB8> {
  static constexpr CellTypeId kId = CellTypeId::kRGB8;
};

}  // namespace tilestore

#endif  // TILESTORE_CORE_CELL_TYPE_H_

#ifndef TILESTORE_CORE_RLE_CELLS_H_
#define TILESTORE_CORE_RLE_CELLS_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"

namespace tilestore {

/// Walks the cells of a PackBits RLE stream (the `kRle` byte codec of
/// storage/compression.h) without materializing the decoded buffer, for
/// cells of 1 to 8 bytes. `visit(cell, n)` sees the cells in decode order:
/// literal bytes and short repeats are assembled one cell at a time in a
/// register buffer (`n == 1`); a repeat run spanning whole cells arrives
/// as one call carrying its cell count, so kernels can treat it in bulk.
/// The stream must decode to exactly `cell_count * cell_size` bytes
/// (Corruption otherwise).
template <typename Visit>
Status ForEachRleCell(const std::vector<uint8_t>& stream, size_t cell_size,
                      uint64_t cell_count, Visit&& visit) {
  uint8_t buf[8];
  size_t fill = 0;
  auto push_byte = [&](uint8_t b) {
    // fill < cell_size <= 8 is invariant; the modulo makes it provable
    // for the compiler's bounds checking.
    buf[fill % sizeof(buf)] = b;
    if (++fill == cell_size) {
      visit(static_cast<const uint8_t*>(buf), uint64_t{1});
      fill = 0;
    }
  };

  const uint64_t declared_bytes = cell_count * cell_size;
  uint64_t bytes_seen = 0;
  size_t i = 0;
  const size_t n = stream.size();
  while (i < n) {
    const uint8_t control = stream[i++];
    if (control == 0x80) {
      return Status::Corruption("reserved RLE control byte");
    }
    const bool literal = control < 0x80;
    size_t run = literal ? static_cast<size_t>(control) + 1
                         : 257 - static_cast<size_t>(control);
    if (literal && i + run > n) {
      return Status::Corruption("truncated RLE literal run");
    }
    if (!literal && i >= n) {
      return Status::Corruption("truncated RLE repeat run");
    }
    bytes_seen += run;
    if (bytes_seen > declared_bytes) {
      return Status::Corruption("RLE stream longer than declared size");
    }
    if (literal) {
      for (size_t k = 0; k < run; ++k) push_byte(stream[i + k]);
      i += run;
      continue;
    }
    // Finish the partially assembled cell, then take whole cells of the
    // repeated byte at once, then start the next partial cell.
    const uint8_t b = stream[i++];
    while (run > 0 && fill != 0) {
      push_byte(b);
      --run;
    }
    if (run >= cell_size) {
      uint8_t cell[8];
      std::memset(cell, b, sizeof(cell));
      const uint64_t whole = run / cell_size;
      run -= static_cast<size_t>(whole * cell_size);
      visit(static_cast<const uint8_t*>(cell), whole);
    }
    while (run > 0) {
      push_byte(b);
      --run;
    }
  }
  if (fill != 0 || bytes_seen != declared_bytes) {
    return Status::Corruption("RLE stream shorter than declared size");
  }
  return Status::OK();
}

}  // namespace tilestore

#endif  // TILESTORE_CORE_RLE_CELLS_H_

#ifndef TILESTORE_COMMON_CHECKSUM_H_
#define TILESTORE_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace tilestore {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected) over `data`;
/// used for TSN1 frames, WAL records, superblocks, page checksums and the
/// sidecar files. Runs on the SSE4.2 `crc32` instruction when the CPU has
/// it (checked once) and on software slicing-by-8 otherwise; both give
/// the same value. `seed` allows incremental computation:
/// Crc32c(b, n2, Crc32c(a, n1)) == Crc32c(concat(a, b), n1 + n2).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// The two kernels behind `Crc32c`, exposed so tests can pin them against
/// each other. Same contract as `Crc32c`.
namespace crc32c_internal {

/// Portable slicing-by-8.
uint32_t Software(const void* data, size_t n, uint32_t seed);

/// Whether this build and CPU can run `Hardware`.
bool HardwareAvailable();

/// SSE4.2 `crc32`; only valid when `HardwareAvailable()`.
uint32_t Hardware(const void* data, size_t n, uint32_t seed);

}  // namespace crc32c_internal

}  // namespace tilestore

#endif  // TILESTORE_COMMON_CHECKSUM_H_

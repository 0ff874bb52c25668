#include "common/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TILESTORE_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace tilestore {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected

struct Crc32cTables {
  // tables[k][b]: CRC contribution of byte b at distance k from the end of
  // an 8-byte block (slicing-by-8).
  std::array<std::array<uint32_t, 256>, 8> t;

  constexpr Crc32cTables() : t() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t k = 1; k < 8; ++k) {
        crc = (crc >> 8) ^ t[0][crc & 0xFFu];
        t[k][i] = crc;
      }
    }
  }
};

constexpr Crc32cTables kTables;

}  // namespace

namespace crc32c_internal {

uint32_t Software(const void* data, size_t n, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = kTables.t[7][lo & 0xFFu] ^ kTables.t[6][(lo >> 8) & 0xFFu] ^
          kTables.t[5][(lo >> 16) & 0xFFu] ^ kTables.t[4][lo >> 24] ^
          kTables.t[3][hi & 0xFFu] ^ kTables.t[2][(hi >> 8) & 0xFFu] ^
          kTables.t[1][(hi >> 16) & 0xFFu] ^ kTables.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

#ifdef TILESTORE_CRC32C_X86

bool HardwareAvailable() {
  // Initialise the CPU model first: the check may run before libgcc's own
  // constructor when a static initializer computes a CRC.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// Compiled for SSE4.2 on its own, so the rest of the build keeps the
// baseline ISA; only reached after the CPU check.
__attribute__((target("sse4.2"))) uint32_t Hardware(const void* data,
                                                    size_t n, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n) crc32 = _mm_crc32_u8(crc32, *p++);
  return ~crc32;
}

#else

bool HardwareAvailable() { return false; }

uint32_t Hardware(const void* data, size_t n, uint32_t seed) {
  return Software(data, n, seed);
}

#endif

}  // namespace crc32c_internal

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  static const auto kernel = crc32c_internal::HardwareAvailable()
                                 ? &crc32c_internal::Hardware
                                 : &crc32c_internal::Software;
  return kernel(data, n, seed);
}

}  // namespace tilestore

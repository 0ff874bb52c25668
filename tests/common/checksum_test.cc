#include "common/checksum.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"

namespace tilestore {
namespace {

TEST(ChecksumTest, KnownVectors) {
  // CRC-32C check value (ITU/iSCSI test vector).
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xE3069283u);

  // RFC 3720 B.4: 32 bytes of zeros.
  std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);

  // RFC 3720 B.4: 32 bytes of 0xFF.
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);

  // RFC 3720 B.4: 32 incrementing bytes 0x00..0x1F.
  std::vector<uint8_t> inc(32);
  for (size_t i = 0; i < inc.size(); ++i) inc[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(inc.data(), inc.size()), 0x46DD794Eu);
}

TEST(ChecksumTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32c("x", 0), 0u);
}

TEST(ChecksumTest, IncrementalMatchesOneShot) {
  const std::string data =
      "the quick brown fox jumps over the lazy dog 0123456789";
  const uint32_t whole = Crc32c(data.data(), data.size());
  // Every split point must agree with the one-shot value.
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32c(data.data(), split);
    const uint32_t crc = Crc32c(data.data() + split, data.size() - split, head);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(ChecksumTest, SensitiveToEveryByte) {
  std::vector<uint8_t> buf(64, 0x5A);
  const uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] ^= 0x01;
    EXPECT_NE(Crc32c(buf.data(), buf.size()), base) << "flip at " << i;
    buf[i] ^= 0x01;
  }
}

std::vector<uint8_t> SeededBytes(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next() >> 56);
  return bytes;
}

TEST(ChecksumTest, BothKernelsGiveTheCheckValue) {
  const char* digits = "123456789";
  EXPECT_EQ(crc32c_internal::Software(digits, 9, 0), 0xE3069283u);
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "CPU lacks SSE4.2";
  }
  EXPECT_EQ(crc32c_internal::Hardware(digits, 9, 0), 0xE3069283u);
}

// The hardware kernel must equal the portable one bit for bit on every
// length around the 8-byte word loop, every start alignment and a few
// page-sized and larger buffers: every CRC the store has ever persisted
// was computed by one of the two.
TEST(ChecksumTest, HardwareMatchesSoftware) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "CPU lacks SSE4.2";
  }
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {4096, 65536, 1 << 20});
  Random seeds(0xC5C32C);
  for (size_t n : lengths) {
    const std::vector<uint8_t> bytes = SeededBytes(n + 8, seeds.Next());
    const uint32_t seed = static_cast<uint32_t>(seeds.Next());
    for (size_t align = 0; align < 8; ++align) {
      const uint8_t* p = bytes.data() + align;
      ASSERT_EQ(crc32c_internal::Hardware(p, n, 0),
                crc32c_internal::Software(p, n, 0))
          << "length " << n << " alignment " << align;
      ASSERT_EQ(crc32c_internal::Hardware(p, n, seed),
                crc32c_internal::Software(p, n, seed))
          << "length " << n << " alignment " << align << " seed " << seed;
    }
  }
}

TEST(ChecksumTest, IncrementalMatchesOneShotOnSeededBuffers) {
  Random rng(20261020);
  for (int round = 0; round < 64; ++round) {
    const std::vector<uint8_t> bytes =
        SeededBytes(rng.Uniform(4096) + 1, rng.Next());
    const size_t split = rng.Uniform(bytes.size() + 1);
    const uint32_t whole = Crc32c(bytes.data(), bytes.size());
    const uint32_t head = Crc32c(bytes.data(), split);
    EXPECT_EQ(Crc32c(bytes.data() + split, bytes.size() - split, head), whole)
        << "size " << bytes.size() << " split " << split;
    EXPECT_EQ(whole, crc32c_internal::Software(bytes.data(), bytes.size(), 0));
  }
}

}  // namespace
}  // namespace tilestore

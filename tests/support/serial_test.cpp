// CRC32 tests: known answers for the reflected IEEE polynomial, and the
// carry-less-multiply fold against the byte-at-a-time table loop at
// every length around the fold's block structure, at every alignment,
// and chained across the 64-byte fold threshold.
#include "support/serial.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace rbb::serial {
namespace {

std::vector<unsigned char> random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(size);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32_table("", 0), 0u);
  EXPECT_EQ(crc32(std::string_view()), 0u);
  EXPECT_EQ(crc32_table("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  // 72 bytes: one folded block, one 16-byte block, 8 table bytes.
  const std::string nines(72, '9');
  EXPECT_EQ(crc32(nines.data(), nines.size()),
            crc32_table(nines.data(), nines.size()));
}

// Every length 0..1100 at every offset 0..15, each from a random chained
// seed: covers the < 64 table path, the first 64-byte block, the 4-way
// loop, the 16-byte single folds and every 0..15-byte table tail.
TEST(Crc32, FoldedMatchesTableEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = random_bytes(1100 + 16, 7);
  Rng seeds(11);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const auto seed = static_cast<std::uint32_t>(seeds());
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(crc32(p, len, seed), crc32_table(p, len, seed))
          << "len " << len << " offset " << offset << " seed " << seed;
    }
  }
}

// crc(a || b) == crc(b, crc(a)) with the split on either side of the
// fold threshold, so a table-path prefix chains into a folded suffix
// and vice versa.
TEST(Crc32, ChainsAcrossTheFoldThreshold) {
  const std::vector<unsigned char> buf = random_bytes(300, 3);
  for (const std::size_t total : {64u, 65u, 127u, 128u, 200u, 300u}) {
    const std::uint32_t whole = crc32(buf.data(), total);
    ASSERT_EQ(whole, crc32_table(buf.data(), total));
    for (std::size_t split = 0; split <= total; ++split) {
      const std::uint32_t head = crc32(buf.data(), split);
      EXPECT_EQ(crc32(buf.data() + split, total - split, head), whole)
          << "total " << total << " split " << split;
    }
  }
}

TEST(Crc32, OneMebibytePattern) {
  std::vector<unsigned char> buf(std::size_t{1} << 20);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>((i * 31) ^ (i >> 8));
  }
  const std::uint32_t table = crc32_table(buf.data(), buf.size());
  EXPECT_EQ(crc32(buf.data(), buf.size()), table);
  EXPECT_EQ(table, 0x59374B2Fu);  // zlib.crc32 of the same bytes
}

}  // namespace
}  // namespace rbb::serial

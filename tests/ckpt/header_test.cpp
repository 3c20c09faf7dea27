// rbb.ckpt.v1 format tests: encode/decode round trip, the pinned
// encoding, the rejection table (every malformed header field raises
// its own named ErrorKind), the corrupt-a-byte fuzz (EVERY single-byte
// mutation of a valid file is detected and rejected -- nothing is ever
// silently restored), truncation at every possible length, and the
// same rejections through read_checkpoint() on files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/io.hpp"
#include "support/serial.hpp"

namespace rbb::ckpt {
namespace {

Checkpoint sample_checkpoint() {
  Checkpoint c;
  c.header.family = Family::kTetris;
  c.header.backend = kBackendSharded;
  c.header.bins = 4096;
  c.header.entities = 4096;
  c.header.seed = 99;
  c.header.round = 123456789;
  c.header.options_digest = digest("experiment=trajectory family=tetris");
  c.meta = "experiment=trajectory\nfamily=tetris\nn=4096\n";
  c.payload = std::string("\x01\x02\x03payload-bytes\x00\xff", 18);
  return c;
}

/// A 1000-byte payload: its CRC runs through the folded path, which the
/// 18-byte sample never reaches.
Checkpoint large_checkpoint() {
  Checkpoint c = sample_checkpoint();
  c.payload.resize(1000);
  for (std::size_t i = 0; i < c.payload.size(); ++i) {
    c.payload[i] = static_cast<char>((i * 131) ^ (i >> 3));
  }
  return c;
}

/// Both samples, for the fuzz tests.
std::vector<std::string> good_images() {
  return {encode(sample_checkpoint()), encode(large_checkpoint())};
}

ErrorKind decode_kind(const std::string& bytes) {
  try {
    (void)decode(bytes);
  } catch (const Error& e) {
    return e.kind();
  }
  ADD_FAILURE() << "decode accepted a malformed image";
  return ErrorKind::kIo;
}

TEST(CkptHeader, EncodeDecodeRoundTrip) {
  const Checkpoint c = sample_checkpoint();
  const Checkpoint got = decode(encode(c));
  EXPECT_EQ(got.header.version, kFormatVersion);
  EXPECT_EQ(got.header.family, c.header.family);
  EXPECT_EQ(got.header.stream, kStreamCounter);
  EXPECT_EQ(got.header.backend, c.header.backend);
  EXPECT_EQ(got.header.bins, c.header.bins);
  EXPECT_EQ(got.header.entities, c.header.entities);
  EXPECT_EQ(got.header.seed, c.header.seed);
  EXPECT_EQ(got.header.round, c.header.round);
  EXPECT_EQ(got.header.options_digest, c.header.options_digest);
  EXPECT_EQ(got.meta, c.meta);
  EXPECT_EQ(got.payload, c.payload);
}

TEST(CkptHeader, LargePayloadRoundTrip) {
  const Checkpoint c = large_checkpoint();
  const std::string bytes = encode(c);
  // encode() sizes its output once: a regrown buffer would carry up to
  // twice the image in capacity.
  EXPECT_LT(bytes.capacity(), bytes.size() + 32);
  EXPECT_EQ(decode(bytes).payload, c.payload);
}

// The encoding is pinned: this size and CRC32 are those of the encoder's
// output before the folded CRC32, so the format cannot drift silently.
TEST(CkptHeader, EncodingIsPinned) {
  const std::string bytes = encode(sample_checkpoint());
  EXPECT_EQ(bytes.size(), 141u);
  EXPECT_EQ(serial::crc32_table(bytes.data(), bytes.size()), 0xC031F8C4u);
  EXPECT_EQ(serial::crc32(bytes), 0xC031F8C4u);
}

// -- rejection table: each malformed field gets its own ErrorKind ------------

TEST(CkptHeader, RejectsWrongMagic) {
  std::string bytes = encode(sample_checkpoint());
  bytes[0] = 'X';
  EXPECT_EQ(decode_kind(bytes), ErrorKind::kBadMagic);
}

TEST(CkptHeader, RejectsUnknownVersion) {
  // encode() honors the header verbatim, so this file has valid CRCs
  // and fails on the version check alone.
  Checkpoint c = sample_checkpoint();
  c.header.version = 99;
  EXPECT_EQ(decode_kind(encode(c)), ErrorKind::kBadVersion);
}

TEST(CkptHeader, RejectsUnknownFamily) {
  Checkpoint c = sample_checkpoint();
  c.header.family = static_cast<Family>(kFamilyCount + 7);
  EXPECT_EQ(decode_kind(encode(c)), ErrorKind::kBadFamily);
}

TEST(CkptHeader, RejectsUnknownStream) {
  Checkpoint c = sample_checkpoint();
  c.header.stream = 3;  // only the counter stream is checkpointable
  EXPECT_EQ(decode_kind(encode(c)), ErrorKind::kBadStream);
}

TEST(CkptHeader, RejectsEmptyImage) {
  EXPECT_EQ(decode_kind(std::string()), ErrorKind::kTruncated);
}

// -- verify_matches: the restore-time identity checks ------------------------

TEST(CkptHeader, VerifyMatchesAccepts) {
  const Checkpoint c = sample_checkpoint();
  EXPECT_NO_THROW(verify_matches(c.header, Family::kTetris, 4096, 4096, 99,
                                 c.header.options_digest));
}

TEST(CkptHeader, VerifyMatchesRejectsByKind) {
  const Checkpoint c = sample_checkpoint();
  const auto kind_of = [&](Family f, std::uint64_t n, std::uint64_t m,
                           std::uint64_t seed, std::uint32_t dig) {
    try {
      verify_matches(c.header, f, n, m, seed, dig);
    } catch (const Error& e) {
      return e.kind();
    }
    ADD_FAILURE() << "verify_matches accepted a mismatch";
    return ErrorKind::kIo;
  };
  const std::uint32_t dig = c.header.options_digest;
  EXPECT_EQ(kind_of(Family::kLoad, 4096, 4096, 99, dig),
            ErrorKind::kFamilyMismatch);
  EXPECT_EQ(kind_of(Family::kTetris, 512, 4096, 99, dig),
            ErrorKind::kShapeMismatch);
  EXPECT_EQ(kind_of(Family::kTetris, 4096, 512, 99, dig),
            ErrorKind::kShapeMismatch);
  EXPECT_EQ(kind_of(Family::kTetris, 4096, 4096, 7, dig),
            ErrorKind::kShapeMismatch);
  EXPECT_EQ(kind_of(Family::kTetris, 4096, 4096, 99, dig ^ 1),
            ErrorKind::kDigestMismatch);
}

// -- corruption fuzz ---------------------------------------------------------

// Flip every byte of a valid image, one at a time: every mutation must
// be rejected with a named Error.  (The two CRC regions cover the
// whole file, so there is no byte whose corruption can go unnoticed.)
TEST(CkptHeader, EverySingleByteFlipIsRejected) {
  for (const std::string& good : good_images()) {
    for (std::size_t i = 0; i < good.size(); ++i) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ 0x5A);
      EXPECT_THROW((void)decode(bad), Error) << "byte " << i << " of "
                                             << good.size();
    }
  }
}

// Truncate at every length: a shortened image must never decode.
TEST(CkptHeader, EveryTruncationIsRejected) {
  for (const std::string& good : good_images()) {
    for (std::size_t len = 0; len < good.size(); ++len) {
      EXPECT_THROW((void)decode(good.substr(0, len)), Error)
          << "truncated to " << len << " of " << good.size();
    }
  }
}

// Appending trailing garbage must also be rejected (the length fields
// account for every byte).
TEST(CkptHeader, TrailingGarbageIsRejected) {
  for (const std::string& good : good_images()) {
    std::string bad = good;
    bad += '\0';
    EXPECT_THROW((void)decode(bad), Error) << good.size() << " bytes";
  }
}

TEST(CkptHeader, ErrorMessagesAreNamed) {
  try {
    (void)decode(std::string("not a checkpoint at all, but long enough to "
                             "get past the fixed-size header check......"));
    FAIL() << "decode accepted garbage";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kBadMagic);
    EXPECT_NE(std::string(e.what()).find("checkpoint bad-magic"),
              std::string::npos)
        << "what() = " << e.what();
  }
}

// -- read_checkpoint on files ------------------------------------------------

class CkptFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rbb-ckpt-file-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write(const std::string& bytes) const {
    const std::string path = (dir_ / "image.ckpt").string();
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    return path;
  }

  /// The ErrorKind read_checkpoint() throws for `path`; what() in *what.
  static ErrorKind read_kind(const std::string& path,
                             std::string* what = nullptr) {
    try {
      (void)read_checkpoint(path);
    } catch (const Error& e) {
      if (what != nullptr) *what = e.what();
      return e.kind();
    }
    ADD_FAILURE() << "read_checkpoint accepted " << path;
    return ErrorKind::kIo;
  }

  std::filesystem::path dir_;
};

TEST_F(CkptFile, ReadsBackWhatWasEncoded) {
  for (const Checkpoint& c : {sample_checkpoint(), large_checkpoint()}) {
    const Checkpoint got = read_checkpoint(write(encode(c)));
    EXPECT_EQ(got.header.round, c.header.round);
    EXPECT_EQ(got.meta, c.meta);
    EXPECT_EQ(got.payload, c.payload);
  }
}

// A file fails with the ErrorKind decode() gives on its bytes.
TEST_F(CkptFile, RejectsLikeDecode) {
  for (const std::string& good : good_images()) {
    std::string flipped = good;  // a payload byte
    flipped[good.size() - 10] ^= 1;
    const std::vector<std::string> bad = {
        good.substr(0, good.size() - 1), good + '\0', flipped, std::string()};
    for (const std::string& bytes : bad) {
      EXPECT_EQ(read_kind(write(bytes)), decode_kind(bytes))
          << bytes.size() << " of " << good.size() << " bytes";
    }
    EXPECT_EQ(decode_kind(flipped), ErrorKind::kPayloadCorrupt);
    EXPECT_EQ(decode_kind(std::string()), ErrorKind::kTruncated);
  }
}

TEST_F(CkptFile, MissingFileIsAnIoErrorWithItsErrno) {
  std::string what;
  EXPECT_EQ(read_kind((dir_ / "absent.ckpt").string(), &what), ErrorKind::kIo);
  EXPECT_NE(what.find(std::strerror(ENOENT)), std::string::npos) << what;

  // A path through a regular file fails open() with ENOTDIR.
  const std::string file = write(encode(sample_checkpoint()));
  EXPECT_EQ(read_kind(file + "/inner.ckpt", &what), ErrorKind::kIo);
  EXPECT_NE(what.find(std::strerror(ENOTDIR)), std::string::npos) << what;
}

TEST_F(CkptFile, DirectoryIsNotARegularFile) {
  std::string what;
  EXPECT_EQ(read_kind(dir_.string(), &what), ErrorKind::kIo);
  EXPECT_NE(what.find("checkpoint io-error:"), std::string::npos) << what;
  EXPECT_NE(what.find("not a regular file"), std::string::npos) << what;
}

}  // namespace
}  // namespace rbb::ckpt

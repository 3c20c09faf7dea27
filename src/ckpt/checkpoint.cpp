#include "ckpt/checkpoint.hpp"

#include <cstring>

#include "support/serial.hpp"

namespace rbb::ckpt {

const char* to_string(Family family) noexcept {
  switch (family) {
    case Family::kLoad:
      return "load";
    case Family::kToken:
      return "token";
    case Family::kTetris:
      return "tetris";
    case Family::kDChoices:
      return "dchoices";
    case Family::kThreshold:
      return "threshold";
    case Family::kLeaky:
      return "leaky";
    case Family::kMixed:
      return "mixed";
  }
  return "?";
}

const char* to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kIo:
      return "io-error";
    case ErrorKind::kTruncated:
      return "truncated";
    case ErrorKind::kBadMagic:
      return "bad-magic";
    case ErrorKind::kBadVersion:
      return "bad-version";
    case ErrorKind::kBadFamily:
      return "bad-family";
    case ErrorKind::kBadStream:
      return "bad-stream";
    case ErrorKind::kHeaderCorrupt:
      return "header-corrupt";
    case ErrorKind::kPayloadCorrupt:
      return "payload-corrupt";
    case ErrorKind::kFamilyMismatch:
      return "family-mismatch";
    case ErrorKind::kDigestMismatch:
      return "options-digest-mismatch";
    case ErrorKind::kShapeMismatch:
      return "shape-mismatch";
  }
  return "?";
}

Error::Error(ErrorKind kind, const std::string& detail)
    : std::runtime_error(std::string("checkpoint ") + to_string(kind) + ": " +
                         detail),
      kind_(kind) {}

std::uint32_t digest(std::string_view canonical_options) noexcept {
  return serial::crc32(canonical_options);
}

namespace {

// Fixed-size prefix before the variable-length meta block.
constexpr std::size_t kFixedHeaderBytes =
    sizeof kMagic + 4 /*version*/ + 4 /*family*/ + 4 /*stream*/ +
    4 /*backend*/ + 8 /*bins*/ + 8 /*entities*/ + 8 /*seed*/ + 8 /*round*/ +
    4 /*digest*/ + 4 /*meta_len*/;

}  // namespace

std::string encode(const Checkpoint& ckpt) {
  serial::ByteWriter w;
  w.reserve(kFixedHeaderBytes + ckpt.meta.size() + 4 /*header crc*/ +
            8 /*payload_len*/ + ckpt.payload.size() + 4 /*payload crc*/);
  w.bytes(kMagic, sizeof kMagic);
  w.u32(ckpt.header.version);
  w.u32(static_cast<std::uint32_t>(ckpt.header.family));
  w.u32(ckpt.header.stream);
  w.u32(ckpt.header.backend);
  w.u64(ckpt.header.bins);
  w.u64(ckpt.header.entities);
  w.u64(ckpt.header.seed);
  w.u64(ckpt.header.round);
  w.u32(ckpt.header.options_digest);
  w.u32(static_cast<std::uint32_t>(ckpt.meta.size()));
  w.bytes(ckpt.meta.data(), ckpt.meta.size());
  w.u32(serial::crc32(w.str()));
  w.u64(ckpt.payload.size());
  w.bytes(ckpt.payload.data(), ckpt.payload.size());
  w.u32(serial::crc32(ckpt.payload));
  return w.take();
}

Checkpoint decode(std::string bytes) {
  const std::string_view image(bytes);
  if (image.size() < kFixedHeaderBytes) {
    throw Error(ErrorKind::kTruncated,
                "file is " + std::to_string(image.size()) +
                    " bytes, smaller than the fixed header (" +
                    std::to_string(kFixedHeaderBytes) + ")");
  }
  if (std::memcmp(image.data(), kMagic, sizeof kMagic) != 0) {
    throw Error(ErrorKind::kBadMagic, "not an rbb.ckpt file");
  }

  serial::ByteReader r(image);
  char magic[sizeof kMagic];
  r.bytes(magic, sizeof magic);

  Checkpoint ckpt;
  Header& h = ckpt.header;
  h.version = r.u32();
  if (h.version != kFormatVersion) {
    throw Error(ErrorKind::kBadVersion,
                "format version " + std::to_string(h.version) +
                    ", this build reads version " +
                    std::to_string(kFormatVersion));
  }
  const std::uint32_t family_tag = r.u32();
  if (family_tag >= kFamilyCount) {
    throw Error(ErrorKind::kBadFamily,
                "family tag " + std::to_string(family_tag) + " out of range");
  }
  h.family = static_cast<Family>(family_tag);
  h.stream = r.u32();
  if (h.stream != kStreamCounter) {
    throw Error(ErrorKind::kBadStream,
                "stream tag " + std::to_string(h.stream) +
                    " is not a checkpointable counter stream");
  }
  h.backend = r.u32();
  h.bins = r.u64();
  h.entities = r.u64();
  h.seed = r.u64();
  h.round = r.u64();
  h.options_digest = r.u32();

  const std::uint32_t meta_len = r.u32();
  if (meta_len > r.remaining()) {
    throw Error(ErrorKind::kTruncated, "meta block runs past end of file");
  }
  const std::size_t header_region = kFixedHeaderBytes + meta_len;
  r = serial::ByteReader(image.substr(header_region));  // past the meta
  if (r.remaining() < 4) {
    throw Error(ErrorKind::kTruncated, "missing header checksum");
  }
  const std::uint32_t header_crc = r.u32();
  if (header_crc != serial::crc32(image.substr(0, header_region))) {
    throw Error(ErrorKind::kHeaderCorrupt, "header/meta CRC32 mismatch");
  }

  if (r.remaining() < 8) {
    throw Error(ErrorKind::kTruncated, "missing payload length");
  }
  const std::uint64_t payload_len = r.u64();
  if (r.remaining() < 4 || payload_len != r.remaining() - 4) {
    throw Error(ErrorKind::kTruncated,
                "payload length " + std::to_string(payload_len) +
                    " disagrees with file size (" +
                    std::to_string(r.remaining()) +
                    " bytes follow the header)");
  }
  const std::size_t payload_offset = header_region + 4 + 8;
  const auto payload_size = static_cast<std::size_t>(payload_len);
  std::uint32_t payload_crc = 0;
  std::memcpy(&payload_crc, image.data() + payload_offset + payload_size,
              sizeof payload_crc);
  if (payload_crc !=
      serial::crc32(image.data() + payload_offset, payload_size)) {
    throw Error(ErrorKind::kPayloadCorrupt, "payload CRC32 mismatch");
  }

  ckpt.meta = std::string(image.substr(kFixedHeaderBytes, meta_len));
  // Slide the payload to the front of the image's own buffer and cut
  // the rest: one in-place move, no second payload-sized string.
  bytes.erase(0, payload_offset);
  bytes.resize(payload_size);
  ckpt.payload = std::move(bytes);
  return ckpt;
}

void verify_matches(const Header& header, Family family, std::uint64_t bins,
                    std::uint64_t entities, std::uint64_t seed,
                    std::uint32_t options_digest) {
  if (header.family != family) {
    throw Error(ErrorKind::kFamilyMismatch,
                std::string("checkpoint is for family '") +
                    to_string(header.family) + "', restore target is '" +
                    to_string(family) + "'");
  }
  if (header.bins != bins || header.entities != entities ||
      header.seed != seed) {
    throw Error(ErrorKind::kShapeMismatch,
                "checkpoint (n=" + std::to_string(header.bins) +
                    ", m=" + std::to_string(header.entities) +
                    ", seed=" + std::to_string(header.seed) +
                    ") vs restore target (n=" + std::to_string(bins) +
                    ", m=" + std::to_string(entities) +
                    ", seed=" + std::to_string(seed) + ")");
  }
  if (header.options_digest != options_digest) {
    throw Error(ErrorKind::kDigestMismatch,
                "checkpoint options digest " +
                    std::to_string(header.options_digest) +
                    " != restore target digest " +
                    std::to_string(options_digest) +
                    " (different experiment parameters)");
  }
}

}  // namespace rbb::ckpt

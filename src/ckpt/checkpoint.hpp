// rbb.ckpt.v1 — the versioned, checksummed on-disk snapshot format
// (DESIGN.md Sect. 7).
//
// A checkpoint is a header (identity: family, stream, backend, n, m,
// seed, round, options digest), a meta block (the canonical
// `name=value` experiment description `rbb resume` replays), and an
// opaque kernel payload produced by a core's snapshot().  Two CRC32s
// guard the file: one over the header+meta region, one over the
// payload, so corruption anywhere is detected and named before a
// single byte reaches restore().
//
// File layout (all integers little-endian):
//
//   offset  size  field
//   0       8     magic "RBBCKPT1"
//   8       4     format version (u32, = 1)
//   12      4     family (u32, Family enum)
//   16      4     stream tag (u32, 0 = counter/Philox)
//   20      4     backend tag (u32, 0 = seq, 1 = sharded; informational
//                 only — counter trajectories are backend-invariant, so
//                 the digest deliberately excludes it)
//   24      8     bins n (u64)
//   32      8     entities m (u64; balls or tokens at construction)
//   40      8     seed (u64)
//   48      8     round (u64; the snapshot was taken after this round)
//   56      4     options digest (u32; CRC32 of the canonical option
//                 string — catches resume-under-different-parameters)
//   60      4     meta length (u32)
//   64      ...   meta bytes
//   ...     4     header CRC32 (over everything above, offset 0..here)
//   ...     8     payload length (u64)
//   ...     ...   payload bytes
//   ...     4     payload CRC32
//
// decode() throws Error with a distinct ErrorKind for every failure
// mode; verify_matches() adds the restore-time identity checks.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rbb::ckpt {

inline constexpr char kMagic[8] = {'R', 'B', 'B', 'C', 'K', 'P', 'T', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;

/// Kernel family recorded in the header.  Values are part of the
/// on-disk format: append only.
enum class Family : std::uint32_t {
  kLoad = 0,
  kToken = 1,
  kTetris = 2,
  kDChoices = 3,
  kThreshold = 4,
  kLeaky = 5,
  kMixed = 6,
};

inline constexpr std::uint32_t kFamilyCount = 7;

[[nodiscard]] const char* to_string(Family family) noexcept;

/// Stream tags.  Only the counter stream is checkpointable (its draws
/// are f(seed, round, slot), so state + round + seed is closed); the
/// sequential xoshiro stream has hidden RNG state and is rejected.
inline constexpr std::uint32_t kStreamCounter = 0;

/// Backend tags (informational).
inline constexpr std::uint32_t kBackendSeq = 0;
inline constexpr std::uint32_t kBackendSharded = 1;

enum class ErrorKind {
  kIo,              // file unreadable / unwritable
  kTruncated,       // shorter than its own length fields claim
  kBadMagic,        // not an rbb checkpoint
  kBadVersion,      // format version we don't speak
  kBadFamily,       // family tag out of range
  kBadStream,       // stream tag is not a checkpointable stream
  kHeaderCorrupt,   // header/meta CRC mismatch
  kPayloadCorrupt,  // payload CRC mismatch
  kFamilyMismatch,  // restore target is a different kernel family
  kDigestMismatch,  // restore target was built with different options
  kShapeMismatch,   // n/m/seed disagree with the restore target
};

[[nodiscard]] const char* to_string(ErrorKind kind) noexcept;

/// All checkpoint failures surface as this exception; what() always
/// starts with "checkpoint <kind-name>:" so CLI errors are
/// self-describing.
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, const std::string& detail);
  [[nodiscard]] ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

struct Header {
  std::uint32_t version = kFormatVersion;
  Family family = Family::kLoad;
  std::uint32_t stream = kStreamCounter;
  std::uint32_t backend = kBackendSeq;
  std::uint64_t bins = 0;
  std::uint64_t entities = 0;
  std::uint64_t seed = 0;
  std::uint64_t round = 0;
  std::uint32_t options_digest = 0;
};

struct Checkpoint {
  Header header;
  /// Canonical experiment description, one `name=value` per line with a
  /// leading `experiment=<name>` line; `rbb resume` replays it.
  std::string meta;
  /// Opaque kernel snapshot bytes (serial::ByteWriter output).
  std::string payload;
};

/// Digest of a canonical option string (the family/shape/seed-defining
/// parameters, excluding execution options — trajectories are invariant
/// across backend/threads/shard size).
[[nodiscard]] std::uint32_t digest(std::string_view canonical_options) noexcept;

/// Serializes to the rbb.ckpt.v1 byte layout.  Honors the header
/// fields verbatim (including a wrong version/family) so tests can
/// craft rejection cases with valid checksums.
[[nodiscard]] std::string encode(const Checkpoint& ckpt);

/// Parses and fully verifies a checkpoint file image; throws Error on
/// any corruption, truncation, or unknown tag.  The payload is then cut
/// out of `bytes` in place and becomes Checkpoint::payload, so an image
/// moved in (as read_checkpoint does) is never copied into a second
/// payload-sized buffer.
[[nodiscard]] Checkpoint decode(std::string bytes);

/// Restore-time identity check: the checkpoint must describe the same
/// kernel family, shape, seed, and option digest as the process about
/// to be overwritten.  Throws Error(kFamilyMismatch | kShapeMismatch |
/// kDigestMismatch).
void verify_matches(const Header& header, Family family, std::uint64_t bins,
                    std::uint64_t entities, std::uint64_t seed,
                    std::uint32_t options_digest);

}  // namespace rbb::ckpt

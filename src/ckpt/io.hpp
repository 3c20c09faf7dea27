// Crash-atomic checkpoint persistence (DESIGN.md Sect. 7).
//
// Every durable write follows the same discipline: serialize to
// `<path>.tmp`, fsync the file, rename() over the final path, fsync the
// directory.  A crash at any instant therefore leaves either the old
// file, the new file, or a `.tmp` orphan that discovery ignores --
// never a torn final file.  The chaos harness pins this by injecting
// `RBB_CRASH_AT=<phase>:<round>` kill points at the four interesting
// instants (mid-payload, after-tmp, before-rename, post-rename).
//
// Checkpoint writes are best-effort by design: a full or read-only
// disk must not kill an 8e6-round simulation, so write_checkpoint_file
// retries with backoff, logs, bumps obs counters
// (checkpoint_writes/bytes/failures/retries), and reports failure to
// the caller instead of throwing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"

namespace rbb::ckpt {

/// Exit code used by injected kill points (matches the shell's code
/// for a SIGKILLed process, so the chaos harness can't confuse an
/// injected crash with a clean failure path).
inline constexpr int kCrashExitCode = 137;

/// Kill-point phase names accepted in RBB_CRASH_AT=<phase>:<round>.
inline constexpr const char* kCrashMidPayload = "mid-payload";
inline constexpr const char* kCrashAfterTmp = "after-tmp";
inline constexpr const char* kCrashBeforeRename = "before-rename";
inline constexpr const char* kCrashPostRename = "post-rename";

/// If RBB_CRASH_AT names this phase and round, prints a marker to
/// stderr and _exit(kCrashExitCode)s without unwinding -- simulating a
/// hard crash at exactly this instant.  The environment is re-read on
/// every call so forked chaos-test children can arm it after fork().
void maybe_crash(const char* phase, std::uint64_t round) noexcept;

/// tmp+fsync+rename+dir-fsync write of an arbitrary byte blob (also
/// the runner's --out path, satellite 1).  Returns false and fills
/// *error on failure; the destination is never left torn.  `round`
/// keys the kill points (pass 0 outside checkpoint context).
[[nodiscard]] bool atomic_write_file(const std::string& path,
                                     std::string_view bytes,
                                     std::string* error,
                                     std::uint64_t crash_round = 0);

/// Encodes and durably writes one checkpoint with retry/backoff and
/// telemetry.  Never throws; returns false (and fills *error) only
/// after all attempts failed.
[[nodiscard]] bool write_checkpoint_file(const std::string& path,
                                         const Checkpoint& ckpt,
                                         std::string* error);

/// Reads an entire regular file with one open/fstat/read into a buffer
/// of its size; throws Error(kIo) carrying the failing call's errno if
/// it is unreadable, or naming it if it is not a regular file.
[[nodiscard]] std::string read_file(const std::string& path);

/// read_file + decode, the payload cut out of the read buffer in place:
/// throws Error with a named kind on any I/O failure, corruption, or
/// truncation.
[[nodiscard]] Checkpoint read_checkpoint(const std::string& path);

/// Canonical checkpoint filename for a round: "rbb-%020u.ckpt" so
/// lexicographic order == round order.
[[nodiscard]] std::string checkpoint_filename(std::uint64_t round);

/// Highest-round "rbb-*.ckpt" in `dir` (ignores .tmp orphans and
/// foreign files); nullopt if none or the directory is unreadable.
[[nodiscard]] std::optional<std::string> latest_checkpoint(
    const std::string& dir);

/// Periodic write-every-K / keep-last-K checkpoint schedule used by the
/// runner.  Failures are logged and counted but never stop the run.
class CheckpointPlan {
 public:
  CheckpointPlan() = default;
  CheckpointPlan(std::string dir, std::uint64_t every, std::uint64_t keep);

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }
  [[nodiscard]] bool due(std::uint64_t round) const noexcept {
    return enabled() && every_ != 0 && round != 0 && round % every_ == 0;
  }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::uint64_t every() const noexcept { return every_; }

  /// Writes `ckpt` to dir()/checkpoint_filename(ckpt.header.round) and
  /// prunes all but the newest `keep` checkpoints this plan wrote.
  /// Returns the written path, or nullopt if the write failed (the
  /// simulation continues either way).
  std::optional<std::string> write(const Checkpoint& ckpt);

 private:
  std::string dir_;
  std::uint64_t every_ = 0;
  std::uint64_t keep_ = 3;
  /// (round, path) of successfully written checkpoints, for retention.
  std::vector<std::pair<std::uint64_t, std::string>> written_;
};

}  // namespace rbb::ckpt

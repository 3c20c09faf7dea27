#include "ckpt/io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/huge_pages.hpp"

namespace rbb::ckpt {

namespace {

// Directory component of `path` ("" for a bare filename).
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

// fsync the directory containing `path` so the rename itself is
// durable.  Best-effort: some filesystems refuse O_RDONLY directory
// fsync; a failure here weakens durability, not atomicity.
void fsync_parent_dir(const std::string& path) {
  const std::string dir = dir_of(path);
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    (void)::fsync(fd);
    (void)::close(fd);
  }
}

std::string errno_message(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

}  // namespace

void maybe_crash(const char* phase, std::uint64_t round) noexcept {
  // Re-read the environment every call: the setting is rare (test-only)
  // and forked chaos children arm it after the parent may already have
  // written checkpoints.
  const char* spec = std::getenv("RBB_CRASH_AT");
  if (spec == nullptr || *spec == '\0') return;
  const char* colon = std::strchr(spec, ':');
  if (colon == nullptr) return;
  const std::size_t phase_len = static_cast<std::size_t>(colon - spec);
  if (phase_len != std::strlen(phase) ||
      std::strncmp(spec, phase, phase_len) != 0) {
    return;
  }
  char* end = nullptr;
  const unsigned long long want = std::strtoull(colon + 1, &end, 10);
  if (end == colon + 1 || *end != '\0' || want != round) return;
  std::fprintf(stderr, "rbb: injected crash at %s:%llu (RBB_CRASH_AT)\n",
               phase, static_cast<unsigned long long>(round));
  std::fflush(stderr);
  ::_exit(kCrashExitCode);
}

bool atomic_write_file(const std::string& path, std::string_view bytes,
                       std::string* error, std::uint64_t crash_round) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    if (error != nullptr) *error = errno_message("cannot create", tmp);
    return false;
  }

  // Write in two halves with a kill point between them: a crash here
  // must leave only a truncated .tmp that discovery ignores.
  const std::size_t half = bytes.size() / 2;
  std::size_t written = 0;
  bool write_failed = false;
  const auto write_span = [&](std::size_t begin, std::size_t end_pos) {
    while (begin < end_pos) {
      const ::ssize_t n = ::write(fd, bytes.data() + begin, end_pos - begin);
      if (n < 0) {
        if (errno == EINTR) continue;
        write_failed = true;
        return;
      }
      begin += static_cast<std::size_t>(n);
      written += static_cast<std::size_t>(n);
    }
  };
  write_span(0, half);
  maybe_crash(kCrashMidPayload, crash_round);
  if (!write_failed) write_span(half, bytes.size());
  if (write_failed || written != bytes.size()) {
    if (error != nullptr) *error = errno_message("cannot write", tmp);
    (void)::close(fd);
    (void)::unlink(tmp.c_str());
    return false;
  }
  if (::fsync(fd) != 0) {
    if (error != nullptr) *error = errno_message("cannot fsync", tmp);
    (void)::close(fd);
    (void)::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    if (error != nullptr) *error = errno_message("cannot close", tmp);
    (void)::unlink(tmp.c_str());
    return false;
  }
  maybe_crash(kCrashAfterTmp, crash_round);

  maybe_crash(kCrashBeforeRename, crash_round);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = errno_message("cannot rename to", path);
    (void)::unlink(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path);
  maybe_crash(kCrashPostRename, crash_round);
  return true;
}

bool write_checkpoint_file(const std::string& path, const Checkpoint& ckpt,
                           std::string* error) {
  const obs::ScopedPhase span(obs::Phase::kCkptWrite);
  const std::string bytes = encode(ckpt);
  constexpr int kMaxAttempts = 3;
  std::string last_error;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt != 0) {
      obs::add(obs::Counter::kCheckpointRetries);
      // 4 ms, 16 ms: long enough for transient contention, short
      // enough to be invisible next to a checkpoint-worthy run.
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << (2 * attempt)));
    }
    if (atomic_write_file(path, bytes, &last_error, ckpt.header.round)) {
      obs::add(obs::Counter::kCheckpointWrites);
      obs::add(obs::Counter::kCheckpointBytes, bytes.size());
      return true;
    }
  }
  obs::add(obs::Counter::kCheckpointFailures);
  if (error != nullptr) *error = last_error;
  return false;
}

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw Error(ErrorKind::kIo, errno_message("cannot open", path));
  }
  const auto fail = [&](const std::string& detail) {
    (void)::close(fd);
    throw Error(ErrorKind::kIo, detail);
  };
  struct stat st {};
  if (::fstat(fd, &st) != 0) fail(errno_message("cannot stat", path));
  if (!S_ISREG(st.st_mode)) {
    fail("cannot read " + path + ": not a regular file");
  }
  // One buffer of the file's size, advised for huge pages before the
  // zero fill first touches it and filled by read() directly: the
  // decoder then cuts the payload out of it in place.
  std::string bytes;
  bytes.reserve(static_cast<std::size_t>(st.st_size));
  advise_huge_pages(bytes.data(), bytes.capacity());
  bytes.resize(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ::ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(errno_message("cannot read", path));
    }
    if (n == 0) break;  // the file shrank since fstat
    got += static_cast<std::size_t>(n);
  }
  (void)::close(fd);
  bytes.resize(got);
  return bytes;
}

Checkpoint read_checkpoint(const std::string& path) {
  return decode(read_file(path));
}

std::string checkpoint_filename(std::uint64_t round) {
  char name[40];
  std::snprintf(name, sizeof name, "rbb-%020llu.ckpt",
                static_cast<unsigned long long>(round));
  return name;
}

std::optional<std::string> latest_checkpoint(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir.empty() ? "." : dir, ec);
  if (ec) return std::nullopt;
  std::optional<std::string> best;
  std::string best_name;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() != std::strlen("rbb-") + 20 + std::strlen(".ckpt") ||
        name.rfind("rbb-", 0) != 0 ||
        name.compare(name.size() - 5, 5, ".ckpt") != 0) {
      continue;
    }
    // Zero-padded fixed-width round => lexicographic == numeric order.
    if (!best || name > best_name) {
      best_name = name;
      best = entry.path().string();
    }
  }
  return best;
}

CheckpointPlan::CheckpointPlan(std::string dir, std::uint64_t every,
                               std::uint64_t keep)
    : dir_(std::move(dir)), every_(every), keep_(keep == 0 ? 1 : keep) {}

std::optional<std::string> CheckpointPlan::write(const Checkpoint& ckpt) {
  if (!enabled()) return std::nullopt;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best-effort
  const std::string path =
      dir_ + "/" + checkpoint_filename(ckpt.header.round);
  std::string error;
  if (!write_checkpoint_file(path, ckpt, &error)) {
    std::fprintf(stderr,
                 "rbb: checkpoint write failed (continuing without): %s\n",
                 error.c_str());
    return std::nullopt;
  }
  written_.emplace_back(ckpt.header.round, path);
  while (written_.size() > keep_) {
    (void)::unlink(written_.front().second.c_str());
    written_.erase(written_.begin());
  }
  return path;
}

}  // namespace rbb::ckpt

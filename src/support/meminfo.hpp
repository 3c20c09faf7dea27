// Process memory and CPU-time introspection for the perf experiments
// and the run metadata.
#pragma once

#include <cstdint>

namespace rbb {

/// A byte count read from /proc with explicit availability: on
/// platforms without the file (or without its line) `available` is
/// false and callers must render "unavailable" -- a silent 0 would read
/// as "no memory used" in the result tables.
struct MemReading {
  bool available = false;
  std::uint64_t bytes = 0;
};
using PeakRss = MemReading;

/// Peak resident set size of the current process (Linux VmHWM from
/// /proc/self/status).
[[nodiscard]] PeakRss peak_rss() noexcept;

/// Parses VmHWM out of a status file at `path` (testing seam for
/// peak_rss: unit tests point it at synthetic files).
[[nodiscard]] PeakRss parse_peak_rss_status(const char* path) noexcept;

/// Anonymous memory of the current process that transparent huge pages
/// back right now (Linux AnonHugePages from /proc/self/smaps_rollup).
[[nodiscard]] MemReading anon_huge_bytes() noexcept;

/// Parses AnonHugePages out of an smaps_rollup file at `path` (testing
/// seam for anon_huge_bytes).
[[nodiscard]] MemReading parse_anon_huge_smaps(const char* path) noexcept;

/// User + system CPU seconds the current process has used so far, over
/// all its threads (getrusage(RUSAGE_SELF)); 0 where getrusage fails.
/// Its growth over an interval divided by the interval's wall seconds
/// is the number of cores the interval kept busy.
[[nodiscard]] double process_cpu_seconds() noexcept;

}  // namespace rbb

#include "support/meminfo.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>

namespace rbb {
namespace {

/// The "<key> <value> kB" line of the file at `path`, in bytes.
MemReading parse_kb_line(const char* path, const char* key) noexcept {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return {};
  const std::size_t key_len = std::strlen(key);
  MemReading result;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      unsigned long long kb = 0;
      if (std::sscanf(line + key_len, "%llu", &kb) == 1) {
        result.available = true;
        result.bytes = static_cast<std::uint64_t>(kb) * 1024;
      }
      break;
    }
  }
  std::fclose(f);
  return result;
}

}  // namespace

PeakRss parse_peak_rss_status(const char* path) noexcept {
  return parse_kb_line(path, "VmHWM:");
}

PeakRss peak_rss() noexcept {
  return parse_peak_rss_status("/proc/self/status");
}

MemReading parse_anon_huge_smaps(const char* path) noexcept {
  return parse_kb_line(path, "AnonHugePages:");
}

MemReading anon_huge_bytes() noexcept {
  return parse_anon_huge_smaps("/proc/self/smaps_rollup");
}

double process_cpu_seconds() noexcept {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace rbb

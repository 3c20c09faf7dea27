// Tests for the memory and CPU-time probes (src/support/meminfo.*):
// the VmHWM and AnonHugePages parses must say "unavailable" explicitly
// -- never a silent 0 -- when the file is missing, lacks the line, or
// carries garbage.
#include "support/meminfo.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

namespace rbb {
namespace {

/// Writes `content` to a temp file and returns its path.
std::string write_status(const std::string& name,
                         const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << content;
  return path;
}

TEST(Meminfo, ParsesVmHwmLine) {
  const std::string path = write_status("status_valid",
                                        "Name:\trbb\n"
                                        "VmPeak:\t  123456 kB\n"
                                        "VmHWM:\t    5432 kB\n"
                                        "VmRSS:\t    4000 kB\n");
  const PeakRss rss = parse_peak_rss_status(path.c_str());
  EXPECT_TRUE(rss.available);
  EXPECT_EQ(rss.bytes, 5432ull * 1024);
  std::remove(path.c_str());
}

TEST(Meminfo, MissingLineIsUnavailableNotZero) {
  const std::string path = write_status("status_no_hwm",
                                        "Name:\trbb\n"
                                        "VmPeak:\t  123456 kB\n"
                                        "VmRSS:\t    4000 kB\n");
  const PeakRss rss = parse_peak_rss_status(path.c_str());
  EXPECT_FALSE(rss.available);
  EXPECT_EQ(rss.bytes, 0u);
  std::remove(path.c_str());
}

TEST(Meminfo, MissingFileIsUnavailable) {
  const PeakRss rss =
      parse_peak_rss_status("/nonexistent/dir/status-for-meminfo-test");
  EXPECT_FALSE(rss.available);
  EXPECT_EQ(rss.bytes, 0u);
}

TEST(Meminfo, UnparsableValueIsUnavailable) {
  const std::string path = write_status("status_garbage",
                                        "VmHWM:\tnot-a-number kB\n");
  const PeakRss rss = parse_peak_rss_status(path.c_str());
  EXPECT_FALSE(rss.available);
  EXPECT_EQ(rss.bytes, 0u);
  std::remove(path.c_str());
}

TEST(Meminfo, ZeroKbIsAvailable) {
  // Availability and magnitude are independent: an explicit 0 kB line
  // parses as available (the old API conflated the two).
  const std::string path = write_status("status_zero", "VmHWM:\t0 kB\n");
  const PeakRss rss = parse_peak_rss_status(path.c_str());
  EXPECT_TRUE(rss.available);
  EXPECT_EQ(rss.bytes, 0u);
  std::remove(path.c_str());
}

TEST(Meminfo, ParsesAnonHugePagesLine) {
  const std::string path = write_status("smaps_rollup_valid",
                                        "Rss:               40960 kB\n"
                                        "Anonymous:         36864 kB\n"
                                        "AnonHugePages:     32768 kB\n"
                                        "ShmemPmdMapped:        0 kB\n");
  const MemReading thp = parse_anon_huge_smaps(path.c_str());
  EXPECT_TRUE(thp.available);
  EXPECT_EQ(thp.bytes, 32768ull * 1024);
  std::remove(path.c_str());
}

TEST(Meminfo, AnonHugePagesMissingLineOrFileIsUnavailable) {
  const std::string path = write_status("smaps_rollup_no_thp",
                                        "Rss:               40960 kB\n"
                                        "Anonymous:         36864 kB\n");
  const MemReading thp = parse_anon_huge_smaps(path.c_str());
  EXPECT_FALSE(thp.available);
  EXPECT_EQ(thp.bytes, 0u);
  std::remove(path.c_str());
  EXPECT_FALSE(
      parse_anon_huge_smaps("/nonexistent/dir/smaps-for-meminfo-test")
          .available);
}

#ifdef __linux__
TEST(Meminfo, LivePeakRssIsAvailableOnLinux) {
  const PeakRss rss = peak_rss();
  EXPECT_TRUE(rss.available);
  EXPECT_GT(rss.bytes, 0u);
}
#endif

TEST(Meminfo, ProcessCpuSecondsGrowWithBusyWork) {
  // A busy loop on this thread must show up as CPU time; the wall-time
  // bound ends the loop even if the clock never moved.
  const double before = process_cpu_seconds();
  EXPECT_GE(before, 0.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  volatile std::uint64_t sink = 0;
  while (process_cpu_seconds() - before < 0.02 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 100000; ++i) sink = sink + static_cast<unsigned>(i);
  }
  EXPECT_GE(process_cpu_seconds() - before, 0.02);
}

}  // namespace
}  // namespace rbb

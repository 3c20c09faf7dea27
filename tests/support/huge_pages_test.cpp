// Tests for the huge-page advice helper (src/support/huge_pages.*): the
// interior arithmetic, byte preservation, and -- read back from the
// kernel's own /proc/self/smaps VmFlags -- that exactly the 2 MiB-aligned
// interior of a range is advised and nothing around it.
#include "support/huge_pages.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace rbb {
namespace {

constexpr std::size_t kHuge = kHugePageBytes;

const void* at(std::uintptr_t address) {
  return reinterpret_cast<const void*>(address);
}

TEST(HugePages, InteriorIsTheWholeAlignedPagesInside) {
  const std::uintptr_t base = 64 * kHuge;
  // Aligned both ends: the whole range.
  AddressRange r = huge_page_interior(at(base), 3 * kHuge);
  EXPECT_EQ(r.begin, base);
  EXPECT_EQ(r.end, base + 3 * kHuge);
  // Unaligned both ends: rounded inwards.
  r = huge_page_interior(at(base + 4096), 3 * kHuge);
  EXPECT_EQ(r.begin, base + kHuge);
  EXPECT_EQ(r.end, base + 3 * kHuge);
  EXPECT_EQ(r.size(), 2 * kHuge);
  // One byte short of a second page past the first boundary.
  EXPECT_EQ(huge_page_interior(at(base + 1), 2 * kHuge - 2).size(), 0u);
  r = huge_page_interior(at(base + 1), 3 * kHuge - 1);
  EXPECT_EQ(r.begin, base + kHuge);
  EXPECT_EQ(r.end, base + 3 * kHuge);
}

TEST(HugePages, SmallAndUnalignedRangesAreLeftAlone) {
  const std::uintptr_t base = 64 * kHuge;
  EXPECT_EQ(huge_page_interior(at(base), 0).size(), 0u);
  EXPECT_EQ(huge_page_interior(at(base), kHuge - 1).size(), 0u);
  // 2 MiB or more, but straddling a boundary with no whole page inside.
  EXPECT_EQ(huge_page_interior(at(base + kHuge / 2), kHuge).size(), 0u);
  EXPECT_EQ(huge_page_interior(at(base + kHuge / 2), kHuge + kHuge / 4)
                .size(),
            0u);
  std::vector<char> small(kHuge - 1, 'x');
  EXPECT_EQ(advise_huge_pages(small.data(), small.size()), 0u);
  EXPECT_EQ(advise_huge_pages(nullptr, 0), 0u);
}

TEST(HugePages, ReserveKeepsCapacityAndBytes) {
  std::vector<std::uint64_t> v;
  const std::size_t count = 3 * kHuge / sizeof(std::uint64_t) + 5;
  reserve_huge_pages(v, count);
  EXPECT_EQ(v.capacity(), count);
  v.assign(count, 0);
  for (std::size_t i = 0; i < count; ++i) v[i] = i * 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(v[i], i * 0x9e3779b97f4a7c15ull) << i;
  }
}

#if defined(__linux__) && defined(MADV_HUGEPAGE)
/// The parts of [lo, hi) that VMAs flagged `hg` (MADV_HUGEPAGE) cover,
/// from /proc/self/smaps; merged where adjacent.
std::vector<AddressRange> advised_ranges(std::uintptr_t lo,
                                         std::uintptr_t hi) {
  std::ifstream smaps("/proc/self/smaps");
  std::vector<AddressRange> out;
  std::string line;
  AddressRange vma;
  while (std::getline(smaps, line)) {
    unsigned long long a = 0;
    unsigned long long b = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> a >> dash >> b && dash == '-') {
      vma = {static_cast<std::uintptr_t>(a), static_cast<std::uintptr_t>(b)};
      continue;
    }
    if (line.rfind("VmFlags:", 0) != 0) continue;
    std::istringstream flags(line.substr(8));
    std::string flag;
    bool hg = false;
    while (flags >> flag) hg = hg || flag == "hg";
    const std::uintptr_t begin = std::max(vma.begin, lo);
    const std::uintptr_t end = std::min(vma.end, hi);
    if (!hg || begin >= end) continue;
    if (!out.empty() && out.back().end == begin) {
      out.back().end = end;
    } else {
      out.push_back({begin, end});
    }
  }
  return out;
}

TEST(HugePages, OnlyTheInteriorIsAdvisedAndBytesSurvive) {
  const std::size_t map_bytes = 8 * kHuge;
  void* map = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(map, MAP_FAILED);
  const auto base = reinterpret_cast<std::uintptr_t>(map);
  // An unaligned range well inside the mapping, part of it written
  // before the advice.
  char* data = static_cast<char*>(map) + 3 * 4096 + 17;
  const std::size_t bytes = 5 * kHuge + 12345;
  for (std::size_t i = 0; i < bytes; i += 1000) {
    data[i] = static_cast<char>(i * 7 + 1);
  }
  const AddressRange interior = huge_page_interior(data, bytes);
  ASSERT_GE(interior.size(), 4 * kHuge);
  const std::size_t advised = advise_huge_pages(data, bytes);
  if (advised == 0) {
    ::munmap(map, map_bytes);
    GTEST_SKIP() << "MADV_HUGEPAGE refused on this kernel";
  }
  EXPECT_EQ(advised, interior.size());
  for (std::size_t i = 0; i < bytes; i += 1000) {
    ASSERT_EQ(data[i], static_cast<char>(i * 7 + 1)) << i;
  }
  const std::vector<AddressRange> hg =
      advised_ranges(base, base + map_bytes);
  ASSERT_EQ(hg.size(), 1u);
  EXPECT_EQ(hg[0].begin, interior.begin);
  EXPECT_EQ(hg[0].end, interior.end);
  ::munmap(map, map_bytes);
}
#endif

}  // namespace
}  // namespace rbb

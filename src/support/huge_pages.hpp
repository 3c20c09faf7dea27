// Transparent-huge-page advice for large flat arrays (DESIGN.md Sect. 5).
//
// At mega n the token store and the checkpoint byte buffers out-size
// every cache and the TLB: on 4 KiB pages nearly every random access
// into them also walks the page table.  advise_huge_pages() asks the
// kernel to back a fresh allocation with 2 MiB pages
// (madvise(MADV_HUGEPAGE)) before its first touch.
//
// It is per-range advice only: it changes no system setting, takes
// effect only where the machine runs THP in `madvise` or `always` mode,
// and never changes a byte of the range.  Only the 2 MiB-aligned
// interior is advised -- the partial pages at either end belong to the
// allocator's neighbours -- and capacity is never rounded up, so the
// advice costs no memory beyond what the caller allocated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rbb {

/// Size of one transparent huge page (x86-64 PMD mapping).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Half-open address range [begin, end).
struct AddressRange {
  std::uintptr_t begin = 0;
  std::uintptr_t end = 0;
  [[nodiscard]] std::size_t size() const noexcept {
    return end > begin ? end - begin : 0;
  }
};

/// The 2 MiB-aligned interior of [data, data + bytes): the whole huge
/// pages inside it.  Empty (size() == 0) below 2 MiB and whenever no
/// aligned huge page fits.
[[nodiscard]] AddressRange huge_page_interior(const void* data,
                                              std::size_t bytes) noexcept;

/// Advises MADV_HUGEPAGE on huge_page_interior(data, bytes).  Returns
/// the bytes advised: 0 when the interior is empty, and 0 where
/// MADV_HUGEPAGE is missing or the kernel refuses it (the range is then
/// left as it was).  Call it on a fresh allocation before first touch.
std::size_t advise_huge_pages(void* data, std::size_t bytes) noexcept;

/// Reserves `count` elements of `v` (capacity exactly as
/// std::vector::reserve leaves it) and advises the allocation for huge
/// pages, so that a following assign/resize first-touches 2 MiB pages.
template <typename T>
void reserve_huge_pages(std::vector<T>& v, std::size_t count) {
  v.reserve(count);
  advise_huge_pages(v.data(), v.capacity() * sizeof(T));
}

}  // namespace rbb

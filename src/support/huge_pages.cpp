#include "support/huge_pages.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace rbb {

AddressRange huge_page_interior(const void* data, std::size_t bytes) noexcept {
  const auto first = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t mask = kHugePageBytes - 1;
  const std::uintptr_t begin = (first + mask) & ~mask;
  const std::uintptr_t end = (first + bytes) & ~mask;
  if (bytes < kHugePageBytes || end <= begin) return {};
  return {begin, end};
}

std::size_t advise_huge_pages(void* data, std::size_t bytes) noexcept {
  const AddressRange interior = huge_page_interior(data, bytes);
  if (interior.size() == 0) return 0;
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (::madvise(reinterpret_cast<void*>(interior.begin), interior.size(),
                MADV_HUGEPAGE) == 0) {
    return interior.size();
  }
#endif
  return 0;
}

}  // namespace rbb

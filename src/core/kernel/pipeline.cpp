// The AVX2 body of LoadScan::add_range (pipeline.hpp).
//
// Four independent 8-lane accumulator pairs per 32 loads: the zero count
// subtracts the all-ones cmpeq mask (a lane can count to at most
// count / 8 < 2^32), the max is the unsigned max_epu32, so loads of
// 2^31 and above order correctly.  The < 8 tail lanes go through add().
// Pinned against add_range_portable by tests/par/pipelined_test.cpp.
#include "core/kernel/pipeline.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define RBB_SCAN_X86 1
#else
#define RBB_SCAN_X86 0
#endif

namespace rbb::kernel {

#if RBB_SCAN_X86

__attribute__((target("avx2"))) void LoadScan::add_range_avx2(
    const load_t* loads, std::size_t count) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  __m256i z[4] = {zero, zero, zero, zero};
  __m256i m[4] = {zero, zero, zero, zero};
  std::size_t u = 0;
  for (; u + 32 <= count; u += 32) {
    for (int j = 0; j < 4; ++j) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(loads + u + 8 * j));
      z[j] = _mm256_sub_epi32(z[j], _mm256_cmpeq_epi32(v, zero));
      m[j] = _mm256_max_epu32(m[j], v);
    }
  }
  for (; u + 8 <= count; u += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(loads + u));
    z[0] = _mm256_sub_epi32(z[0], _mm256_cmpeq_epi32(v, zero));
    m[0] = _mm256_max_epu32(m[0], v);
  }
  const __m256i zs =
      _mm256_add_epi32(_mm256_add_epi32(z[0], z[1]),
                       _mm256_add_epi32(z[2], z[3]));
  const __m256i ms =
      _mm256_max_epu32(_mm256_max_epu32(m[0], m[1]),
                       _mm256_max_epu32(m[2], m[3]));
  alignas(32) std::uint32_t zl[8];
  alignas(32) load_t ml[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(zl), zs);
  _mm256_store_si256(reinterpret_cast<__m256i*>(ml), ms);
  for (int j = 0; j < 8; ++j) {
    zeros += zl[j];
    max = std::max(max, ml[j]);
  }
  for (; u < count; ++u) add(loads[u]);
}

#else

void LoadScan::add_range_avx2(const load_t* loads, std::size_t count) noexcept {
  add_range_portable(loads, count);
}

#endif

}  // namespace rbb::kernel

// CRC32 by carry-less multiplication (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel 2009), for the reflected IEEE polynomial of serial.hpp.
//
// Four 128-bit accumulators each fold 64 bytes ahead per step:
// acc' = lo(acc) * k1 ^ hi(acc) * k2 ^ next block, with k1, k2 the
// residues x^(512+32) and x^(512-32) mod P (bit-reflected, shifted
// left by one).  The four are then folded into one with the 128-bit
// pair k3, k4, further 16-byte blocks fold the same way, and the last
// 128 bits reduce to 64 (k4, k5) and to 32 by Barrett reduction (P and
// mu = x^64 / P).  Every step is linear over GF(2), so the result equals
// the byte-at-a-time table loop bit for bit; the bytes past the last
// whole 16-byte block go through that loop.
//
// Dispatch follows draw_plane.cpp: the fold is compiled for
// pclmul + sse4.1 only, and chosen once per process with
// __builtin_cpu_supports.
#include "support/serial.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RBB_CRC_X86 1
#include <immintrin.h>
#else
#define RBB_CRC_X86 0
#endif

namespace rbb::serial {
namespace {

#if RBB_CRC_X86

constexpr long long kK1 = 0x154442bd4;
constexpr long long kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0;
constexpr long long kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kPoly = 0x1db710641;
constexpr long long kMu = 0x1f7011641;

/// Carries `acc` forward over the distance the constant pair k = {lo, hi}
/// encodes and adds the next 16 bytes.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold16(
    __m128i acc, __m128i k, __m128i data) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), data);
}

/// Inverted CRC state over `size` bytes; size >= 64 and a multiple of 16.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_blocks(
    const unsigned char* p, std::size_t size, std::uint32_t state) noexcept {
  const auto load = [](const unsigned char* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  size -= 64;

  const __m128i k12 = _mm_set_epi64x(kK2, kK1);
  for (; size >= 64; p += 64, size -= 64) {
    x0 = fold16(x0, k12, load(p));
    x1 = fold16(x1, k12, load(p + 16));
    x2 = fold16(x2, k12, load(p + 32));
    x3 = fold16(x3, k12, load(p + 48));
  }

  const __m128i k34 = _mm_set_epi64x(kK4, kK3);
  __m128i x = fold16(x0, k34, x1);
  x = fold16(x, k34, x2);
  x = fold16(x, k34, x3);
  for (; size >= 16; p += 16, size -= 16) x = fold16(x, k34, load(p));

  // 128 -> 64 bits: the low half times k4 joins the high half, then the
  // low 32 bits of that times k5 join the upper 64.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k34, 0x10));
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  // Barrett: q = floor(x * mu), x ^= q * P leaves the remainder in
  // bits 32..63.
  const __m128i pmu = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pmu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

bool fold_supported() noexcept {
  static const bool supported =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return supported;
}

#endif  // RBB_CRC_X86

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t crc) noexcept {
#if RBB_CRC_X86
  if (size >= kCrcFoldMinBytes && fold_supported()) {
    const auto* p = static_cast<const unsigned char*>(data);
    const std::size_t bulk = size & ~std::size_t{15};
    crc = ~fold_blocks(p, bulk, ~crc);
    return crc32_table(p + bulk, size - bulk, crc);
  }
#endif
  return crc32_table(data, size, crc);
}

}  // namespace rbb::serial

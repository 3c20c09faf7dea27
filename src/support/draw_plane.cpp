// Batched Philox draw-plane kernels and their runtime dispatch.
//
// Three block generators produce identical words (pinned by
// tests/support/draw_plane_test.cpp):
//
//   philox_one     -- one block through the hoisted key schedule; tail
//                     lanes and the reference for the batches,
//   philox_batch4  -- four independent blocks interleaved in scalar
//                     code, so the 10-round multiply latency chains
//                     overlap in the out-of-order core,
//   philox8_avx2   -- eight blocks in struct-of-arrays __m256i lanes;
//                     each round multiplies the even and odd 32-bit
//                     lanes with two mul_epu32 halves and re-blends the
//                     hi/lo products.
//
// The bounded reduction is shared by every path: multiply-shift on the
// first word, deferred-retry on the second (lemire_batch), equal to
// lemire_bounded by the threshold < n argument in counter_rng.hpp.
// fill_packed16 skips it: it unpacks each block into eight masked
// 16-bit lanes (unpack16; on AVX2 a 4x8 transpose plus a zero-extend).
#include "support/draw_plane.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RBB_PLANE_X86 1
#include <immintrin.h>
#else
#define RBB_PLANE_X86 0
#endif

namespace rbb {
namespace {

// ---- dispatch --------------------------------------------------------------

std::atomic<int> g_forced_isa{-1};

PlaneIsa detect_isa() noexcept {
  const char* env = std::getenv("RBB_DRAW_PLANE_SIMD");
  if (env != nullptr && env[0] == '0') return PlaneIsa::kPortable;
#if RBB_PLANE_X86
  if (__builtin_cpu_supports("avx2")) return PlaneIsa::kAvx2;
#endif
  return PlaneIsa::kPortable;
}

// ---- scalar block generators -----------------------------------------------

/// Slots buffered per word/Lemire pass: 64 x 2 x 8 bytes of word
/// buffers live on the caller's stack, well inside L1.
constexpr std::size_t kBatch = 64;

/// One block under a hoisted schedule; same arithmetic as philox4x32
/// with the key adds pre-expanded.
inline void philox_one(const PhiloxKeySchedule& ks, std::uint32_t c0,
                       std::uint32_t c1, std::uint32_t c2, std::uint32_t c3,
                       std::uint64_t& w0, std::uint64_t& w1) noexcept {
  std::uint32_t x0 = c0, x1 = c1, x2 = c2, x3 = c3;
  for (int r = 0; r < kPhiloxRounds; ++r) {
    const std::uint64_t p0 = static_cast<std::uint64_t>(kPhiloxMul0) * x0;
    const std::uint64_t p1 = static_cast<std::uint64_t>(kPhiloxMul1) * x2;
    const std::uint32_t n0 =
        static_cast<std::uint32_t>(p1 >> 32) ^ x1 ^ ks[r][0];
    const std::uint32_t n2 =
        static_cast<std::uint32_t>(p0 >> 32) ^ x3 ^ ks[r][1];
    x1 = static_cast<std::uint32_t>(p1);
    x3 = static_cast<std::uint32_t>(p0);
    x0 = n0;
    x2 = n2;
  }
  w0 = x0 | (static_cast<std::uint64_t>(x1) << 32);
  w1 = x2 | (static_cast<std::uint64_t>(x3) << 32);
}

/// Four independent blocks, lanes interleaved so their multiply chains
/// overlap.  c1/c2/c3 are lane-uniform: every consumer either shares
/// the slot's upper half (gather) or walks a non-wrapping lo range.
inline void philox_batch4(const PhiloxKeySchedule& ks,
                          const std::uint32_t c0[4], std::uint32_t c1,
                          std::uint32_t c2, std::uint32_t c3,
                          std::uint64_t* w0, std::uint64_t* w1) noexcept {
  std::uint32_t x0[4], x1[4], x2[4], x3[4];
  for (int l = 0; l < 4; ++l) {
    x0[l] = c0[l];
    x1[l] = c1;
    x2[l] = c2;
    x3[l] = c3;
  }
  for (int r = 0; r < kPhiloxRounds; ++r) {
    const std::uint32_t k0 = ks[r][0];
    const std::uint32_t k1 = ks[r][1];
    for (int l = 0; l < 4; ++l) {
      const std::uint64_t p0 =
          static_cast<std::uint64_t>(kPhiloxMul0) * x0[l];
      const std::uint64_t p1 =
          static_cast<std::uint64_t>(kPhiloxMul1) * x2[l];
      const std::uint32_t n0 =
          static_cast<std::uint32_t>(p1 >> 32) ^ x1[l] ^ k0;
      const std::uint32_t n2 =
          static_cast<std::uint32_t>(p0 >> 32) ^ x3[l] ^ k1;
      x1[l] = static_cast<std::uint32_t>(p1);
      x3[l] = static_cast<std::uint32_t>(p0);
      x0[l] = n0;
      x2[l] = n2;
    }
  }
  for (int l = 0; l < 4; ++l) {
    w0[l] = x0[l] | (static_cast<std::uint64_t>(x1[l]) << 32);
    w1[l] = x2[l] | (static_cast<std::uint64_t>(x3[l]) << 32);
  }
}

/// Words of `count` (<= kBatch) gathered slots, portable path.
void words_gather_portable(const PhiloxKeySchedule& ks,
                           const std::uint32_t* slot_lo, std::uint32_t slot_hi,
                           std::uint32_t c2, std::uint32_t c3,
                           std::size_t count, std::uint64_t* w0,
                           std::uint64_t* w1) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    philox_batch4(ks, slot_lo + i, slot_hi, c2, c3, w0 + i, w1 + i);
  }
  for (; i < count; ++i) {
    philox_one(ks, slot_lo[i], slot_hi, c2, c3, w0[i], w1[i]);
  }
}

/// Words of the contiguous lo range [lo_base, lo_base + count), portable
/// path.  The caller segments at 2^32 boundaries, so lo never wraps.
void words_range_portable(const PhiloxKeySchedule& ks, std::uint32_t lo_base,
                          std::uint32_t c1, std::uint32_t c2, std::uint32_t c3,
                          std::size_t count, std::uint64_t* w0,
                          std::uint64_t* w1) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const std::uint32_t base = lo_base + static_cast<std::uint32_t>(i);
    const std::uint32_t c0[4] = {base, base + 1, base + 2, base + 3};
    philox_batch4(ks, c0, c1, c2, c3, w0 + i, w1 + i);
  }
  for (; i < count; ++i) {
    philox_one(ks, lo_base + static_cast<std::uint32_t>(i), c1, c2, c3,
               w0[i], w1[i]);
  }
}

/// The eight 16-bit lanes of one block's words (w0, w1), masked, into
/// out[0..8): lane 2w is the low half of 32-bit word w, lane 2w + 1 its
/// high half, so lanes 0..3 come from w0 and 4..7 from w1.
inline void unpack16(std::uint64_t w0, std::uint64_t w1, std::uint32_t mask,
                     std::uint32_t* out) noexcept {
  for (int k = 0; k < 4; ++k) {
    out[k] = static_cast<std::uint32_t>(w0 >> (16 * k)) & mask;
    out[4 + k] = static_cast<std::uint32_t>(w1 >> (16 * k)) & mask;
  }
}

/// Packed lanes of the `blocks` blocks [lo_base, lo_base + blocks),
/// portable path: 8 * blocks outputs.  lo never wraps (see
/// fill_packed16).
void packed_range_portable(const PhiloxKeySchedule& ks, std::uint32_t lo_base,
                           std::uint32_t c1, std::uint32_t c2,
                           std::uint32_t c3, std::size_t blocks,
                           std::uint32_t mask, std::uint32_t* out) noexcept {
  std::uint64_t w0[kBatch], w1[kBatch];
  for (std::size_t b = 0; b < blocks; b += kBatch) {
    const std::size_t len = std::min(blocks - b, kBatch);
    words_range_portable(ks, lo_base + static_cast<std::uint32_t>(b), c1, c2,
                         c3, len, w0, w1);
    for (std::size_t l = 0; l < len; ++l) {
      unpack16(w0[l], w1[l], mask, out + 8 * (b + l));
    }
  }
}

// ---- AVX2 block generator --------------------------------------------------

#if RBB_PLANE_X86

/// Ten Philox rounds over eight blocks in struct-of-arrays lanes.
/// mul_epu32 multiplies the even 32-bit lanes; the odd lanes go through
/// a 32-bit shift, and the hi/lo 32-bit product halves are re-blended
/// into full 8-lane vectors (0xAA = odd lanes from the second operand).
__attribute__((target("avx2"))) inline void philox8_rounds_avx2(
    const PhiloxKeySchedule& ks, __m256i& x0, __m256i& x1, __m256i& x2,
    __m256i& x3) noexcept {
  const __m256i mul0 = _mm256_set1_epi32(static_cast<int>(kPhiloxMul0));
  const __m256i mul1 = _mm256_set1_epi32(static_cast<int>(kPhiloxMul1));
  for (int r = 0; r < kPhiloxRounds; ++r) {
    const __m256i k0 = _mm256_set1_epi32(static_cast<int>(ks[r][0]));
    const __m256i k1 = _mm256_set1_epi32(static_cast<int>(ks[r][1]));
    const __m256i p0e = _mm256_mul_epu32(x0, mul0);
    const __m256i p0o = _mm256_mul_epu32(_mm256_srli_epi64(x0, 32), mul0);
    const __m256i p1e = _mm256_mul_epu32(x2, mul1);
    const __m256i p1o = _mm256_mul_epu32(_mm256_srli_epi64(x2, 32), mul1);
    const __m256i lo0 =
        _mm256_blend_epi32(p0e, _mm256_slli_epi64(p0o, 32), 0xAA);
    const __m256i hi0 =
        _mm256_blend_epi32(_mm256_srli_epi64(p0e, 32), p0o, 0xAA);
    const __m256i lo1 =
        _mm256_blend_epi32(p1e, _mm256_slli_epi64(p1o, 32), 0xAA);
    const __m256i hi1 =
        _mm256_blend_epi32(_mm256_srli_epi64(p1e, 32), p1o, 0xAA);
    x0 = _mm256_xor_si256(_mm256_xor_si256(hi1, x1), k0);
    x1 = lo1;
    x2 = _mm256_xor_si256(_mm256_xor_si256(hi0, x3), k1);
    x3 = lo0;
  }
}

/// Packs the four SoA output vectors into per-lane (w0, w1) words.
__attribute__((target("avx2"))) inline void store_words_avx2(
    __m256i x0, __m256i x1, __m256i x2, __m256i x3, std::uint64_t* w0,
    std::uint64_t* w1) noexcept {
  alignas(32) std::uint32_t a0[8], a1[8], a2[8], a3[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(a0), x0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(a1), x1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(a2), x2);
  _mm256_store_si256(reinterpret_cast<__m256i*>(a3), x3);
  for (int l = 0; l < 8; ++l) {
    w0[l] = a0[l] | (static_cast<std::uint64_t>(a1[l]) << 32);
    w1[l] = a2[l] | (static_cast<std::uint64_t>(a3[l]) << 32);
  }
}

__attribute__((target("avx2"))) void words_gather_avx2(
    const PhiloxKeySchedule& ks, const std::uint32_t* slot_lo,
    std::uint32_t slot_hi, std::uint32_t c2, std::uint32_t c3,
    std::size_t count, std::uint64_t* w0, std::uint64_t* w1) noexcept {
  const __m256i c1v = _mm256_set1_epi32(static_cast<int>(slot_hi));
  const __m256i c2v = _mm256_set1_epi32(static_cast<int>(c2));
  const __m256i c3v = _mm256_set1_epi32(static_cast<int>(c3));
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    __m256i x0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(slot_lo + i));
    __m256i x1 = c1v, x2 = c2v, x3 = c3v;
    philox8_rounds_avx2(ks, x0, x1, x2, x3);
    store_words_avx2(x0, x1, x2, x3, w0 + i, w1 + i);
  }
  for (; i < count; ++i) {
    philox_one(ks, slot_lo[i], slot_hi, c2, c3, w0[i], w1[i]);
  }
}

__attribute__((target("avx2"))) void words_range_avx2(
    const PhiloxKeySchedule& ks, std::uint32_t lo_base, std::uint32_t c1,
    std::uint32_t c2, std::uint32_t c3, std::size_t count, std::uint64_t* w0,
    std::uint64_t* w1) noexcept {
  const __m256i c1v = _mm256_set1_epi32(static_cast<int>(c1));
  const __m256i c2v = _mm256_set1_epi32(static_cast<int>(c2));
  const __m256i c3v = _mm256_set1_epi32(static_cast<int>(c3));
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i base = _mm256_set1_epi32(
        static_cast<int>(lo_base + static_cast<std::uint32_t>(i)));
    __m256i x0 = _mm256_add_epi32(base, iota);
    __m256i x1 = c1v, x2 = c2v, x3 = c3v;
    philox8_rounds_avx2(ks, x0, x1, x2, x3);
    store_words_avx2(x0, x1, x2, x3, w0 + i, w1 + i);
  }
  for (; i < count; ++i) {
    philox_one(ks, lo_base + static_cast<std::uint32_t>(i), c1, c2, c3,
               w0[i], w1[i]);
  }
}

/// Packed lanes of `blocks` blocks, AVX2 path.  After the rounds x_w
/// holds word w of eight blocks; a 4x8 transpose turns them into
/// block-major quads whose 128-bit halves are each one block's eight
/// 16-bit lanes in lane order, zero-extended to 32 bits and masked.
__attribute__((target("avx2"))) void packed_range_avx2(
    const PhiloxKeySchedule& ks, std::uint32_t lo_base, std::uint32_t c1,
    std::uint32_t c2, std::uint32_t c3, std::size_t blocks,
    std::uint32_t mask, std::uint32_t* out) noexcept {
  const __m256i c1v = _mm256_set1_epi32(static_cast<int>(c1));
  const __m256i c2v = _mm256_set1_epi32(static_cast<int>(c2));
  const __m256i c3v = _mm256_set1_epi32(static_cast<int>(c3));
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i maskv = _mm256_set1_epi32(static_cast<int>(mask));
  std::size_t b = 0;
  for (; b + 8 <= blocks; b += 8) {
    const __m256i base = _mm256_set1_epi32(
        static_cast<int>(lo_base + static_cast<std::uint32_t>(b)));
    __m256i x0 = _mm256_add_epi32(base, iota);
    __m256i x1 = c1v, x2 = c2v, x3 = c3v;
    philox8_rounds_avx2(ks, x0, x1, x2, x3);
    // 128-bit half h of t01lo holds (w0, w1) of blocks 4h and 4h + 1,
    // t01hi of 4h + 2 and 4h + 3; likewise t23 for (w2, w3).
    const __m256i t01lo = _mm256_unpacklo_epi32(x0, x1);
    const __m256i t01hi = _mm256_unpackhi_epi32(x0, x1);
    const __m256i t23lo = _mm256_unpacklo_epi32(x2, x3);
    const __m256i t23hi = _mm256_unpackhi_epi32(x2, x3);
    // quad[j], half h: words 0..3 of block 4h + j.
    const __m256i quad[4] = {_mm256_unpacklo_epi64(t01lo, t23lo),
                             _mm256_unpackhi_epi64(t01lo, t23lo),
                             _mm256_unpacklo_epi64(t01hi, t23hi),
                             _mm256_unpackhi_epi64(t01hi, t23hi)};
    for (std::size_t j = 0; j < 4; ++j) {
      const __m256i lanes_lo = _mm256_and_si256(
          _mm256_cvtepu16_epi32(_mm256_castsi256_si128(quad[j])), maskv);
      const __m256i lanes_hi = _mm256_and_si256(
          _mm256_cvtepu16_epi32(_mm256_extracti128_si256(quad[j], 1)), maskv);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * (b + j)),
                          lanes_lo);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * (b + 4 + j)),
                          lanes_hi);
    }
  }
  std::uint64_t w0 = 0, w1 = 0;
  for (; b < blocks; ++b) {
    philox_one(ks, lo_base + static_cast<std::uint32_t>(b), c1, c2, c3, w0,
               w1);
    unpack16(w0, w1, mask, out + 8 * b);
  }
}

#endif  // RBB_PLANE_X86

// ---- batched bounded reduction ---------------------------------------------

/// out[i] = lemire_bounded(w0[i], w1[i], n) with the threshold hoisted:
/// the main loop commits the w0 multiply-shift branch-free and records
/// rejected lanes (probability threshold / 2^64 < 2^-32 each) on a
/// retry list resolved from the stored second words afterwards.
/// count <= kBatch (the retry list is stack-sized).
inline void lemire_batch(const std::uint64_t* w0, const std::uint64_t* w1,
                         std::size_t count, std::uint32_t n,
                         std::uint64_t threshold,
                         std::uint32_t* out) noexcept {
  std::uint32_t retry[kBatch];
  std::size_t retries = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const __uint128_t m = static_cast<__uint128_t>(w0[i]) * n;
    out[i] = static_cast<std::uint32_t>(m >> 64);
    retry[retries] = static_cast<std::uint32_t>(i);
    retries += static_cast<std::size_t>(static_cast<std::uint64_t>(m) <
                                        threshold);
  }
  for (std::size_t k = 0; k < retries; ++k) {
    const std::uint32_t i = retry[k];
    out[i] = static_cast<std::uint32_t>(
        (static_cast<__uint128_t>(w1[i]) * n) >> 64);
  }
  // The scalar lemire_bounded stays constexpr (KAT-pinned); the retry
  // telemetry lives here because every hot consumer reduces in batches.
  if (retries != 0) obs::add(obs::Counter::kLemireRetries, retries);
}

/// Telemetry of one plane fill that started at t0 (0 = telemetry off):
/// its time, its batches by ISA and its draws.
inline void record_fill(std::uint64_t t0, bool avx2, std::uint64_t batches,
                        std::size_t draws) noexcept {
  if (t0 == 0) return;
  obs::add_phase_ns(obs::Phase::kPlaneFill, obs::now_ns() - t0);
  obs::add(avx2 ? obs::Counter::kPlaneBatchesAvx2
                : obs::Counter::kPlaneBatchesPortable,
           batches);
  obs::add(obs::Counter::kPlaneDraws, draws);
}

}  // namespace

// ---- public surface --------------------------------------------------------

PlaneIsa active_plane_isa() noexcept {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<PlaneIsa>(forced);
  static const PlaneIsa detected = detect_isa();
  return detected;
}

bool plane_isa_supported(PlaneIsa isa) noexcept {
  if (isa == PlaneIsa::kPortable) return true;
#if RBB_PLANE_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void force_plane_isa(PlaneIsa isa) noexcept {
  g_forced_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void reset_plane_isa() noexcept {
  g_forced_isa.store(-1, std::memory_order_relaxed);
}

void lemire_bounded_batch(const std::uint64_t* w0, const std::uint64_t* w1,
                          std::size_t count, std::uint32_t n,
                          std::uint32_t* out) noexcept {
  const std::uint64_t threshold = (0 - std::uint64_t{n}) % n;
  while (count > 0) {
    const std::size_t len = std::min(count, kBatch);
    lemire_batch(w0, w1, len, n, threshold, out);
    w0 += len;
    w1 += len;
    out += len;
    count -= len;
  }
}

void DrawPlane::fill_range(std::uint64_t round, std::uint64_t slot_begin,
                           std::size_t count, std::uint32_t n,
                           std::uint32_t* out) const noexcept {
  const std::uint64_t threshold = (0 - std::uint64_t{n}) % n;
  const auto c2 = static_cast<std::uint32_t>(round);
  const auto c3 = static_cast<std::uint32_t>(round >> 32);
  const bool avx2 = active_plane_isa() == PlaneIsa::kAvx2;
  const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  std::uint64_t batches = 0;
  const std::size_t total = count;
  std::uint64_t w0[kBatch], w1[kBatch];
  while (count > 0) {
    const auto lo = static_cast<std::uint32_t>(slot_begin);
    const auto hi = static_cast<std::uint32_t>(slot_begin >> 32);
    // Segment at the next 2^32 slot boundary so the lo words of one
    // batch never wrap (the hi word is lane-uniform per batch).
    const std::uint64_t to_boundary = 0x100000000ull - lo;
    std::size_t len = std::min<std::uint64_t>(count, to_boundary);
    len = std::min(len, kBatch);
#if RBB_PLANE_X86
    if (avx2) {
      words_range_avx2(schedule_, lo, hi, c2, c3, len, w0, w1);
    } else {
      words_range_portable(schedule_, lo, hi, c2, c3, len, w0, w1);
    }
#else
    words_range_portable(schedule_, lo, hi, c2, c3, len, w0, w1);
#endif
    lemire_batch(w0, w1, len, n, threshold, out);
    ++batches;
    slot_begin += len;
    out += len;
    count -= len;
  }
  record_fill(t0, avx2, batches, total);
}

void DrawPlane::fill_packed16(std::uint64_t round, std::uint64_t slot_begin,
                              std::size_t count, unsigned bits,
                              std::uint32_t* out) const noexcept {
  const std::uint32_t mask = (std::uint32_t{1} << bits) - 1;
  const auto c2 = static_cast<std::uint32_t>(round);
  const auto c3 = static_cast<std::uint32_t>(round >> 32);
  const bool avx2 = active_plane_isa() == PlaneIsa::kAvx2;
  const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  std::uint64_t batches = 0;
  const std::size_t total = count;
  while (count >= 8) {
    const auto lo = static_cast<std::uint32_t>(slot_begin);
    const auto hi = static_cast<std::uint32_t>(slot_begin >> 32);
    // Whole blocks up to the next 2^32 slot boundary, as in fill_range.
    const std::size_t blocks =
        std::min<std::uint64_t>(count / 8, 0x100000000ull - lo);
#if RBB_PLANE_X86
    if (avx2) {
      packed_range_avx2(schedule_, lo, hi, c2, c3, blocks, mask, out);
    } else {
      packed_range_portable(schedule_, lo, hi, c2, c3, blocks, mask, out);
    }
#else
    packed_range_portable(schedule_, lo, hi, c2, c3, blocks, mask, out);
#endif
    batches += (blocks + 7) / 8;
    slot_begin += blocks;
    out += 8 * blocks;
    count -= 8 * blocks;
  }
  if (count > 0) {  // the first count lanes of one more block
    std::uint64_t w0 = 0, w1 = 0;
    philox_one(schedule_, static_cast<std::uint32_t>(slot_begin),
               static_cast<std::uint32_t>(slot_begin >> 32), c2, c3, w0, w1);
    std::uint32_t lanes[8];
    unpack16(w0, w1, mask, lanes);
    std::copy(lanes, lanes + count, out);
    ++batches;
  }
  record_fill(t0, avx2, batches, total);
}

void DrawPlane::fill_gather(std::uint64_t round, const std::uint32_t* slot_lo,
                            std::uint32_t slot_hi, std::size_t count,
                            std::uint32_t n,
                            std::uint32_t* out) const noexcept {
  const std::uint64_t threshold = (0 - std::uint64_t{n}) % n;
  const auto c2 = static_cast<std::uint32_t>(round);
  const auto c3 = static_cast<std::uint32_t>(round >> 32);
  const bool avx2 = active_plane_isa() == PlaneIsa::kAvx2;
  const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  std::uint64_t batches = 0;
  const std::size_t total = count;
  std::uint64_t w0[kBatch], w1[kBatch];
  while (count > 0) {
    const std::size_t len = std::min(count, kBatch);
#if RBB_PLANE_X86
    if (avx2) {
      words_gather_avx2(schedule_, slot_lo, slot_hi, c2, c3, len, w0, w1);
    } else {
      words_gather_portable(schedule_, slot_lo, slot_hi, c2, c3, len, w0,
                            w1);
    }
#else
    words_gather_portable(schedule_, slot_lo, slot_hi, c2, c3, len, w0, w1);
#endif
    lemire_batch(w0, w1, len, n, threshold, out);
    ++batches;
    slot_lo += len;
    out += len;
    count -= len;
  }
  record_fill(t0, avx2, batches, total);
}

}  // namespace rbb

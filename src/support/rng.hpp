// Deterministic pseudo-random number generation for the rbb library.
//
// All stochastic processes in this repository draw exclusively from the
// generators defined here, so that every experiment is reproducible from a
// single 64-bit seed.  Two generators are provided:
//
//  * SplitMix64   -- a tiny, fast mixer used for seeding and for hashing
//                    (seed, stream) pairs into independent states.
//  * Xoshiro256pp -- xoshiro256++ by Blackman & Vigna, the workhorse
//                    generator.  Satisfies std::uniform_random_bit_generator,
//                    has 256-bit state, period 2^256 - 1, and supports
//                    jump-ahead for provably disjoint parallel substreams.
//
// Bounded integers are produced with Lemire's unbiased multiply-shift
// rejection method (`Rng::below`), which is branch-light and exact.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace rbb {

/// SplitMix64 mixer (Steele, Lea, Flood).  Used to expand a user seed into
/// generator state and to derive independent stream seeds.  Passes through
/// every 64-bit value exactly once over its full period.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit output; advances the state.
  constexpr std::uint64_t operator()() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  std::uint64_t state_;
};

/// Stateless mix of two 64-bit words into one; used to hash (seed, stream)
/// pairs.  Built from two SplitMix64 steps so distinct pairs map to
/// well-separated states.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a,
                                            std::uint64_t b) noexcept {
  SplitMix64 sm(a ^ (0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2)));
  sm();
  return sm() ^ b;
}

/// xoshiro256++ generator (Blackman & Vigna, 2019).
///
/// The default generator of the library.  Satisfies the C++20
/// std::uniform_random_bit_generator concept, so it can be used with the
/// <random> distributions as well as with the exact samplers in
/// samplers.hpp.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from SplitMix64(seed), as recommended by
  /// the authors (the all-zero state is unreachable this way).
  constexpr explicit Xoshiro256pp(std::uint64_t seed = 0x1d872b41ull) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm();
  }

  /// Seeds a generator for logical stream `stream` of root seed `seed`.
  /// Distinct streams are statistically independent: the state is derived
  /// by hashing the pair and the per-stream sequences come from different
  /// cycles' regions (additionally separated by jump()).
  constexpr Xoshiro256pp(std::uint64_t seed, std::uint64_t stream) noexcept
      : Xoshiro256pp(mix64(seed, stream)) {}

  constexpr std::uint64_t operator()() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Advances the state by 2^128 steps: after k calls the generator
  /// produces a subsequence disjoint from the first k * 2^128 outputs.
  /// Used to carve one root seed into up to 2^128 parallel substreams.
  constexpr void jump() noexcept {
    constexpr std::array<std::uint64_t, 4> kJump = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
        0x39abdc4529b1661cULL};
    std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
    for (std::uint64_t word : kJump) {
      for (int b = 0; b < 64; ++b) {
        if (word & (1ULL << b)) {
          for (int i = 0; i < 4; ++i) acc[static_cast<std::size_t>(i)] ^= s_[static_cast<std::size_t>(i)];
        }
        (*this)();
      }
    }
    s_ = acc;
  }

  /// Exposes the raw state (testing only).
  [[nodiscard]] constexpr const std::array<std::uint64_t, 4>& state()
      const noexcept {
    return s_;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

/// The library-wide RNG facade: a Xoshiro256pp plus convenience draws.
///
/// Every process object owns one Rng.  Experiments derive per-trial rngs
/// with Rng(seed, trial_index) so trials are independent and the result of
/// a parallel sweep does not depend on the number of worker threads.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x1d872b41ull) noexcept : gen_(seed) {}
  Rng(std::uint64_t seed, std::uint64_t stream) noexcept : gen_(seed, stream) {}

  std::uint64_t operator()() noexcept { return gen_(); }
  static constexpr std::uint64_t min() noexcept { return Xoshiro256pp::min(); }
  static constexpr std::uint64_t max() noexcept { return Xoshiro256pp::max(); }

  /// Unbiased uniform integer in [0, bound); bound must be >= 1.
  /// Lemire's multiply-shift with rejection on the low word.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    std::uint64_t x = gen_();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = gen_();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [0, n) as a 32-bit index (n must fit in 32 bits).
  [[nodiscard]] std::uint32_t index(std::uint32_t n) noexcept {
    return static_cast<std::uint32_t>(below(n));
  }

  /// Fills out[0..count) with i.i.d. uniform indices in [0, n), drawing
  /// the *same stream* as `count` successive index(n) calls by
  /// construction.  Batching keeps the generator state in registers
  /// across the block and decouples sampling from consumption, which
  /// lets the complete-graph load-only round prefetch its arrival
  /// scatter (BallProcessCore::step_sequential, core/kernel/
  /// ball_kernel.hpp).
  void fill_indices(std::uint32_t* out, std::size_t count,
                    std::uint32_t n) noexcept {
    for (std::size_t i = 0; i < count; ++i) out[i] = index(n);
  }

  /// Uniform double in [0, 1) with 53 random bits.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli(p) draw; p outside [0,1] saturates.
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard exponential variate (rate 1), via inversion.  Never returns
  /// +inf because uniform() < 1.
  [[nodiscard]] double exponential() noexcept;

  /// Exponential with rate `rate` > 0.
  [[nodiscard]] double exponential(double rate) noexcept {
    return exponential() / rate;
  }

  /// Jump the underlying generator 2^128 steps ahead (parallel substreams).
  void jump() noexcept { gen_.jump(); }

  /// Derives an independent child generator, advancing this one.  Use when
  /// several stochastic objects must be seeded from one parent without
  /// sharing a stream (constructors take Rng by value, so passing the
  /// parent twice would replay the same draws).
  [[nodiscard]] Rng split() noexcept {
    const std::uint64_t a = gen_();
    const std::uint64_t b = gen_();
    return Rng(a, b);
  }

 private:
  Xoshiro256pp gen_;
};

/// Fisher-Yates shuffle of [first, last) using `rng`; deterministic given
/// the rng state (std::shuffle is not reproducible across standard
/// libraries, this is).
template <typename RandomIt>
void shuffle(RandomIt first, RandomIt last, Rng& rng) {
  using diff_t = typename std::iterator_traits<RandomIt>::difference_type;
  const diff_t count = last - first;
  for (diff_t i = count - 1; i > 0; --i) {
    const auto j = static_cast<diff_t>(
        rng.below(static_cast<std::uint64_t>(i) + 1));
    if (j != i) std::swap(first[i], first[j]);
  }
}

}  // namespace rbb

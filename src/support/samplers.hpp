// Exact discrete samplers used by the balls-into-bins processes.
//
// The Tetris analysis (paper, Sect. 3.4) is driven by Binomial(3n/4, 1/n)
// variates; the leaky-bins extension uses Binomial(n, lambda).  All
// samplers are *exact* (no normal approximations): statistical fidelity
// is part of what the reproduction must guarantee, and the test suite
// chi-square-checks each sampler against the exact pmf.
#pragma once

#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace rbb {

/// Exact Binomial(trials, p) sampler with precomputed constants.
///
/// Strategy selection follows Hoermann (1993):
///  * trials * min(p, 1-p) < 10  -> sequential inversion (O(np) expected),
///  * otherwise                  -> BTRD transformed-rejection (O(1) expected).
/// Construction costs a few dozen flops; reuse one sampler per fixed
/// (trials, p) pair in hot loops (e.g. the Z-chain of eq. (4)).
class BinomialSampler {
 public:
  /// Requires 0 <= p <= 1.  trials may be zero.
  BinomialSampler(std::uint64_t trials, double p);

  /// Draws one variate in [0, trials].
  [[nodiscard]] std::uint64_t operator()(Rng& rng) const;

  [[nodiscard]] std::uint64_t trials() const noexcept { return trials_; }
  [[nodiscard]] double p() const noexcept { return p_; }
  [[nodiscard]] double mean() const noexcept {
    return static_cast<double>(trials_) * p_;
  }

 private:
  [[nodiscard]] std::uint64_t sample_inversion(Rng& rng) const;
  [[nodiscard]] std::uint64_t sample_btrd(Rng& rng) const;

  std::uint64_t trials_;
  double p_;        // original success probability
  double ph_;       // min(p, 1-p), the probability actually sampled with
  bool flipped_;    // true when ph_ == 1 - p (result is mirrored)
  bool degenerate_; // p == 0 or p == 1 or trials == 0
  bool use_btrd_;

  // Inversion constants.
  double q0_;  // (1-ph)^trials
  double odds_;  // ph / (1 - ph)

  // BTRD constants (Hoermann's notation).
  double btrd_m_, btrd_r_, btrd_nr_, btrd_npq_, btrd_b_, btrd_a_, btrd_c_,
      btrd_alpha_, btrd_vr_, btrd_urvr_, btrd_h_;
};

/// One-off Binomial(trials, p) draw; prefer BinomialSampler in loops.
[[nodiscard]] std::uint64_t binomial_sample(std::uint64_t trials, double p,
                                            Rng& rng);

/// Occupancy vector of throwing `balls` balls u.a.r. into `bins` bins,
/// computed ball-by-ball.  O(balls) time.
[[nodiscard]] std::vector<std::uint32_t> occupancy_throw(std::uint64_t balls,
                                                         std::uint32_t bins,
                                                         Rng& rng);

}  // namespace rbb

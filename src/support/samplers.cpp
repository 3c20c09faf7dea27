#include "support/samplers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rbb {
namespace {

// Stirling-series correction fc(k) = log(k!) - [ (k+1/2)log(k+1) - (k+1)
// + 0.5 log(2 pi) ] used by BTRD's exact acceptance step.
double stirling_correction(double k) {
  static constexpr double kTable[10] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.00925546218271273,
      0.00833056343336287};
  if (k < 10.0) return kTable[static_cast<int>(k)];
  const double kp = k + 1.0;
  const double kp2 = kp * kp;
  return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp2) / kp2) / kp;
}

}  // namespace

BinomialSampler::BinomialSampler(std::uint64_t trials, double p)
    : trials_(trials),
      p_(p),
      ph_(0.0),
      flipped_(false),
      degenerate_(false),
      use_btrd_(false),
      q0_(0.0),
      odds_(0.0),
      btrd_m_(0), btrd_r_(0), btrd_nr_(0), btrd_npq_(0), btrd_b_(0),
      btrd_a_(0), btrd_c_(0), btrd_alpha_(0), btrd_vr_(0), btrd_urvr_(0),
      btrd_h_(0) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("BinomialSampler: p must be in [0, 1]");
  }
  if (trials == 0 || p == 0.0 || p == 1.0) {
    degenerate_ = true;
    return;
  }
  flipped_ = p > 0.5;
  ph_ = flipped_ ? 1.0 - p : p;
  const double n = static_cast<double>(trials_);
  if (n * ph_ < 10.0) {
    use_btrd_ = false;
    q0_ = std::exp(n * std::log1p(-ph_));
    odds_ = ph_ / (1.0 - ph_);
  } else {
    use_btrd_ = true;
    const double q = 1.0 - ph_;
    btrd_m_ = std::floor((n + 1.0) * ph_);
    btrd_r_ = ph_ / q;
    btrd_nr_ = (n + 1.0) * btrd_r_;
    btrd_npq_ = n * ph_ * q;
    const double sq = std::sqrt(btrd_npq_);
    btrd_b_ = 1.15 + 2.53 * sq;
    btrd_a_ = -0.0873 + 0.0248 * btrd_b_ + 0.01 * ph_;
    btrd_c_ = n * ph_ + 0.5;
    btrd_alpha_ = (2.83 + 5.1 / btrd_b_) * sq;
    btrd_vr_ = 0.92 - 4.2 / btrd_b_;
    btrd_urvr_ = 0.86 * btrd_vr_;
    const double nm = n - btrd_m_ + 1.0;
    btrd_h_ = (btrd_m_ + 0.5) * std::log((btrd_m_ + 1.0) / (btrd_r_ * nm)) +
              stirling_correction(btrd_m_) +
              stirling_correction(n - btrd_m_);
  }
}

std::uint64_t BinomialSampler::operator()(Rng& rng) const {
  if (degenerate_) return p_ == 1.0 ? trials_ : 0;
  const std::uint64_t k = use_btrd_ ? sample_btrd(rng) : sample_inversion(rng);
  return flipped_ ? trials_ - k : k;
}

std::uint64_t BinomialSampler::sample_inversion(Rng& rng) const {
  // Sequential search of the cdf with the pmf recurrence
  //   pmf(k+1) = pmf(k) * (n-k)/(k+1) * odds.
  const double n = static_cast<double>(trials_);
  double u = rng.uniform();
  double pmf = q0_;
  std::uint64_t k = 0;
  while (u > pmf && k < trials_) {
    u -= pmf;
    const double kd = static_cast<double>(k);
    pmf *= (n - kd) / (kd + 1.0) * odds_;
    ++k;
    // Numerical guard: if pmf has decayed below representable mass while u
    // retains rounding residue, the remaining tail is negligible.
    if (pmf < 1e-300) break;
  }
  return k;
}

std::uint64_t BinomialSampler::sample_btrd(Rng& rng) const {
  // Hoermann (1993), algorithm BTRD, for ph_ <= 0.5 and n*ph_ >= 10.
  const double n = static_cast<double>(trials_);
  for (;;) {
    double v = rng.uniform();
    double u;
    if (v <= btrd_urvr_) {
      u = v / btrd_vr_ - 0.43;
      const double us = 0.5 - std::abs(u);
      return static_cast<std::uint64_t>(
          std::floor((2.0 * btrd_a_ / us + btrd_b_) * u + btrd_c_));
    }
    if (v >= btrd_vr_) {
      u = rng.uniform() - 0.5;
    } else {
      u = v / btrd_vr_ - 0.93;
      u = (u < 0 ? -0.5 : 0.5) - u;
      v = rng.uniform() * btrd_vr_;
    }
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * btrd_a_ / us + btrd_b_) * u + btrd_c_);
    if (kd < 0.0 || kd > n) continue;
    v = v * btrd_alpha_ / (btrd_a_ / (us * us) + btrd_b_);
    const double km = std::abs(kd - btrd_m_);
    if (km <= 15.0) {
      // Exact evaluation by the pmf ratio recurrence.
      double f = 1.0;
      if (btrd_m_ < kd) {
        for (double i = btrd_m_ + 1.0; i <= kd; i += 1.0) {
          f *= btrd_nr_ / i - btrd_r_;
        }
      } else if (btrd_m_ > kd) {
        for (double i = kd + 1.0; i <= btrd_m_; i += 1.0) {
          v *= btrd_nr_ / i - btrd_r_;
        }
      }
      if (v <= f) return static_cast<std::uint64_t>(kd);
      continue;
    }
    // Squeeze-accept / squeeze-reject on the log scale.
    v = std::log(v);
    const double rho =
        (km / btrd_npq_) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / btrd_npq_ +
                            0.5);
    const double t = -km * km / (2.0 * btrd_npq_);
    if (v < t - rho) return static_cast<std::uint64_t>(kd);
    if (v > t + rho) continue;
    // Exact log-pmf comparison.
    const double nm = n - btrd_m_ + 1.0;
    const double nk = n - kd + 1.0;
    const double accept =
        btrd_h_ + (n + 1.0) * std::log(nm / nk) +
        (kd + 0.5) * std::log(nk * btrd_r_ / (kd + 1.0)) -
        stirling_correction(kd) - stirling_correction(n - kd);
    if (v <= accept) return static_cast<std::uint64_t>(kd);
  }
}

std::uint64_t binomial_sample(std::uint64_t trials, double p, Rng& rng) {
  return BinomialSampler(trials, p)(rng);
}

std::vector<std::uint32_t> occupancy_throw(std::uint64_t balls,
                                           std::uint32_t bins, Rng& rng) {
  if (bins == 0) throw std::invalid_argument("occupancy_throw: bins == 0");
  std::vector<std::uint32_t> counts(bins, 0);
  for (std::uint64_t i = 0; i < balls; ++i) counts[rng.index(bins)]++;
  return counts;
}

}  // namespace rbb

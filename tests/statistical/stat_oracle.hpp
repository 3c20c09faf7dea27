// Shared statistics for the seeded oracle suites in tests/statistical/.
//
// Every test here runs at a FIXED seed, so the checks are deterministic
// regressions, not flaky hypothesis tests -- but the acceptance
// thresholds are still chosen generously (roughly the p < 1e-4 tail) so
// that re-seeding or resizing a suite stays overwhelmingly likely to
// pass when the underlying draws are correct.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace rbb::testing {

/// Pearson chi-square statistic of observed counts against expected
/// probabilities (which must sum to ~1).
inline double chi_square(const std::vector<std::uint64_t>& observed,
                         const std::vector<double>& expected_probability) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : observed) total += c;
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double expected =
        expected_probability[i] * static_cast<double>(total);
    const double diff = static_cast<double>(observed[i]) - expected;
    stat += diff * diff / expected;
  }
  return stat;
}

/// Uniform-expectation convenience: every cell at probability 1/k.
inline double chi_square_uniform(const std::vector<std::uint64_t>& observed) {
  return chi_square(
      observed, std::vector<double>(observed.size(),
                                    1.0 / static_cast<double>(
                                              observed.size())));
}

/// Generous chi-square acceptance bound for df degrees of freedom:
/// mean + 4 standard deviations + slack, past the p ~ 1e-4 tail for the
/// df sizes the suites use (the normal approximation of chi^2_df).
inline double chi_square_bound(std::size_t df) {
  const double d = static_cast<double>(df);
  return d + 4.0 * std::sqrt(2.0 * d) + 4.0;
}

/// One-sample Kolmogorov-Smirnov statistic against Uniform[0, 1).
/// `samples` is sorted in place.
inline double ks_uniform(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double d = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max(d, std::max(samples[i] - lo, hi - samples[i]));
  }
  return d;
}

/// Generous KS acceptance bound: 2 / sqrt(n) sits past the p ~ 7e-4
/// tail of the Kolmogorov distribution.
inline double ks_bound(std::size_t n) {
  return 2.0 / std::sqrt(static_cast<double>(n));
}

/// Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
/// two empirical cdfs, evaluated at every distinct value (exact for
/// discrete samples, where ties move both cdfs at once).  Sorts both
/// samples in place.
inline double ks_two_sample(std::vector<double>& a, std::vector<double>& b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

/// Generous two-sample KS acceptance bound, the two-sample analogue of
/// ks_bound: 2 sqrt((n_a + n_b) / (n_a n_b)) sits past the p ~ 7e-4
/// tail (and discrete samples only make the test more conservative).
inline double ks_two_sample_bound(std::size_t na, std::size_t nb) {
  const double a = static_cast<double>(na);
  const double b = static_cast<double>(nb);
  return 2.0 * std::sqrt((a + b) / (a * b));
}

}  // namespace rbb::testing

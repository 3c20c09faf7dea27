#include "markov/zchain_exact.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/bounds.hpp"

namespace rbb {

ZChainExactResult exact_zchain_survival(std::uint32_t n, std::uint64_t start,
                                        std::uint64_t t_max) {
  if (n < 2) throw std::invalid_argument("zchain: n must be >= 2");
  const std::uint64_t b = 3ULL * n / 4;  // arrival trials, floor(3n/4)
  const double p = 1.0 / static_cast<double>(n);
  const double k = static_cast<double>(start);

  ZChainExactResult out;
  out.survival.reserve(t_max + 1);
  double absorbed = start == 0 ? 1.0 : 0.0;  // P(tau <= t)
  for (std::uint64_t t = 0; t <= t_max; ++t) {
    // Hitting-time theorem: tau = t needs exactly t - start arrivals in
    // t rounds, and a (start / t) share of those paths first hits 0 at t.
    if (start > 0 && t >= start) {
      absorbed +=
          k / static_cast<double>(t) * binomial_pmf(t * b, p, t - start);
    }
    // Round-off in the lgamma-based pmf can carry the sum just past 1.
    out.survival.push_back(std::max(0.0, 1.0 - absorbed));
    out.expected_absorption += out.survival.back();
  }
  return out;
}

LeakyQueueExact exact_leaky_queue_stationary(std::uint32_t n, double lambda,
                                             std::size_t cap) {
  if (n < 2) throw std::invalid_argument("leaky queue: n must be >= 2");
  if (!(lambda > 0.0) || lambda >= 1.0) {
    throw std::invalid_argument("leaky queue: lambda must be in (0, 1)");
  }
  const double p = lambda / static_cast<double>(n);
  // tail[m] = P(X >= m) for m = 0 .. n + 1, summed from the top.
  std::vector<double> tail(std::size_t{n} + 2, 0.0);
  for (std::size_t m = std::size_t{n} + 1; m-- > 0;) {
    tail[m] = tail[m + 1] + binomial_pmf(n, p, m);
  }
  const double p_none = binomial_pmf(n, p, 0);

  LeakyQueueExact out;
  out.pmf.assign(cap + 1, 0.0);
  out.pmf[0] = 1.0 - lambda;
  for (std::size_t j = 0; j < cap; ++j) {
    // Flow up across the cut {0..j} | {j+1, ...}: from i the queue keeps
    // max(i - 1, 0) balls and needs j + 1 - max(i - 1, 0) or more arrivals
    // (more than n when i < j + 1 - n, so those terms are zero).  Flow
    // down is j+1 -> j with no arrival.
    double up = 0.0;
    for (std::size_t i = j > n ? j + 1 - n : 0; i <= j; ++i) {
      up += out.pmf[i] * tail[j + 1 - (i == 0 ? 0 : i - 1)];
    }
    out.pmf[j + 1] = up / p_none;
  }
  out.p_empty = out.pmf[0];
  for (std::size_t k = 0; k <= cap; ++k) {
    out.mean += static_cast<double>(k) * out.pmf[k];
  }
  // P(queue >= k) summed from the top of the pmf, so the 1e-9 threshold
  // never sits on a difference of two numbers near 1.
  double at_least = 0.0;
  for (std::size_t k = cap; k > 0; --k) {
    at_least += out.pmf[k];
    if (at_least > 1e-9) {
      out.q999 = k;
      break;
    }
  }
  return out;
}

}  // namespace rbb

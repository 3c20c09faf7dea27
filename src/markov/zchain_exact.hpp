// Exact laws of the two skip-free one-dimensional chains of the paper.
//
// Both chains step down by at most one per round, so each has a finite
// closed form -- no Monte-Carlo error, no state-space truncation, no
// iteration to convergence.
//
// Z-chain (eq. (4), Lemma 5): Z' = Z - 1 + X with X ~ Bin(b, 1/n),
// b = floor(3n/4), absorbed at 0.  By the hitting-time theorem (van der
// Hofstad & Keane 2008) the absorption time tau from Z_0 = k has
//   P_k(tau = s) = (k / s) * P(Bin(s b, 1/n) = s - k),
// so the survival P_k(tau > t) is 1 minus a finite sum.  Lemma 5's bound
// e^{-t/144} (for t >= 8k) is compared with it point by point in the
// exact_chain experiment.
//
// Leaky queue ([18]): Z' = max(Z - 1, 0) + X with X ~ Bin(n, lambda/n).
// Balancing the probability flow across the cut {0..j} | {j+1, ...}
// gives pi_0 = 1 - lambda and
//   pi_{j+1} P(X = 0) = sum_{i <= j} pi_i P(X >= j + 1 - max(i - 1, 0)),
// a recursion of non-negative terms.
#pragma once

#include <cstdint>
#include <vector>

namespace rbb {

/// Exact absorption law of the Z-chain.
struct ZChainExactResult {
  /// survival[t] = P_start(tau > t), for t = 0 .. t_max.
  std::vector<double> survival;
  /// Expected absorption time, truncated at t_max:
  /// sum_{t=0}^{t_max} P(tau > t)  (a lower bound on E[tau], tight once
  /// survival[t_max] is negligible).
  double expected_absorption = 0.0;
};

/// Survival of the Z-chain from Z_0 = start for t = 0 .. t_max; n
/// parameterizes the arrival law Binomial(floor(3n/4), 1/n).
[[nodiscard]] ZChainExactResult exact_zchain_survival(std::uint32_t n,
                                                      std::uint64_t start,
                                                      std::uint64_t t_max);

/// Exact stationary law of a single leaky bin ([18]): the reflecting
/// chain Z' = max(Z - 1, 0) + X with X ~ Binomial(n, lambda/n) -- the
/// marginal queue of the probabilistic Tetris variant where ~lambda * n
/// fresh balls arrive per round.  Requires lambda in (0, 1) (positive
/// drift at lambda >= 1: no stationary law).
struct LeakyQueueExact {
  /// pmf[k] = stationary P(queue == k), for k = 0 .. cap; the mass
  /// above cap is left out, not folded into pmf[cap].
  std::vector<double> pmf;
  /// Stationary P(queue == 0).  Rate conservation forces this to equal
  /// 1 - lambda exactly (each non-empty round serves one ball; the
  /// service rate must match the arrival rate lambda).
  double p_empty = 0.0;
  double mean = 0.0;
  /// Smallest k with P(queue > k) <= 1e-9 (a tail-length summary).
  std::uint64_t q999 = 0;
};

[[nodiscard]] LeakyQueueExact exact_leaky_queue_stationary(
    std::uint32_t n, double lambda, std::size_t cap = 4096);

}  // namespace rbb

// Tests for the exact Z-chain transient analysis (Lemma 5, eq. (4)).
#include "markov/zchain_exact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "markov/dense_matrix.hpp"
#include "support/bounds.hpp"
#include "support/rng.hpp"
#include "tetris/leaky.hpp"
#include "tetris/zchain.hpp"

namespace rbb {
namespace {

/// The chain z' = base(z) + X, X ~ Bin(trials, p), on 0 .. cap with
/// states past cap saturated into cap -- the truncated matrix both
/// closed forms are checked against.
DenseMatrix truncated_chain(std::size_t cap, std::uint64_t trials, double p,
                            bool absorbing) {
  DenseMatrix m(cap + 1, cap + 1);
  for (std::size_t z = 0; z <= cap; ++z) {
    if (absorbing && z == 0) {
      m.at(0, 0) = 1.0;
      continue;
    }
    const std::size_t base = z == 0 ? 0 : z - 1;
    for (std::uint64_t x = 0; x <= trials; ++x) {
      m.at(z, std::min<std::size_t>(base + x, cap)) +=
          binomial_pmf(trials, p, x);
    }
  }
  return m;
}

TEST(ZChainExact, StartAtZeroIsAbsorbedImmediately) {
  const auto r = exact_zchain_survival(16, 0, 10);
  ASSERT_EQ(r.survival.size(), 11u);
  for (const double s : r.survival) EXPECT_DOUBLE_EQ(s, 0.0);
  EXPECT_DOUBLE_EQ(r.expected_absorption, 0.0);
}

TEST(ZChainExact, SurvivalIsAProbabilityAndNonIncreasing) {
  const auto r = exact_zchain_survival(32, 5, 300);
  ASSERT_EQ(r.survival.size(), 301u);
  for (std::size_t t = 0; t < r.survival.size(); ++t) {
    EXPECT_GE(r.survival[t], 0.0);
    EXPECT_LE(r.survival[t], 1.0);
    if (t > 0) {
      EXPECT_LE(r.survival[t], r.survival[t - 1] + 1e-15);
    }
  }
  EXPECT_DOUBLE_EQ(r.survival[0], 1.0);
}

/// Survival cannot drop before t = k: the chain decreases by at most one
/// per step, so absorption from k needs at least k rounds.
TEST(ZChainExact, NoAbsorptionBeforeKSteps) {
  const std::uint64_t k = 7;
  const auto r = exact_zchain_survival(64, k, 50);
  for (std::uint64_t t = 0; t < k; ++t) {
    EXPECT_DOUBLE_EQ(r.survival[t], 1.0) << "t=" << t;
  }
  EXPECT_LT(r.survival[k], 1.0);  // immediate drain path has positive prob
}

/// Wald / optional stopping, exactly: while positive the chain moves by
/// -1 + Bin(3n/4, 1/n), so for 4 | n the drift is exactly -1/4 and (no
/// overshoot -- downward steps are unit) E[tau] = 4k exactly.
TEST(ZChainExact, ExpectedAbsorptionIsFourKExactly) {
  for (const std::uint64_t k : {1ull, 4ull, 20ull}) {
    const auto r = exact_zchain_survival(64, k, 4000);
    EXPECT_NEAR(r.expected_absorption, 4.0 * static_cast<double>(k), 1e-6)
        << "k=" << k;
  }
}

/// Lemma 5: P_k(tau > t) <= e^{-t/144} for every t >= 8k, verified
/// pointwise against the exact survival curve.
TEST(ZChainExact, Lemma5BoundHoldsPointwise) {
  const std::uint64_t k = 4;
  const auto r = exact_zchain_survival(64, k, 600);
  for (std::uint64_t t = 8 * k; t <= 600; t += 4) {
    EXPECT_LE(r.survival[t], zchain_tail_bound(static_cast<double>(t)) + 1e-12)
        << "t=" << t;
  }
}

/// The exact curve decays *much* faster than the Lemma 5 bound (the
/// paper's constant 1/144 is far from tight): the exact decay rate per
/// round is ~0.046, more than 5x the bound's 1/144 ~ 0.0069.
TEST(ZChainExact, ExactDecayBeatsLemma5Constant) {
  const auto r = exact_zchain_survival(64, 2, 400);
  // Fit rate between t = 100 and t = 300.
  const double rate =
      -(std::log(r.survival[300]) - std::log(r.survival[100])) / 200.0;
  EXPECT_GT(rate, 5.0 / 144.0);
}

/// Monte-Carlo cross-check against the simulated chain in tetris/zchain.
TEST(ZChainExact, MatchesSimulatedSurvival) {
  const std::uint32_t n = 32;
  const std::uint64_t k = 6;
  const std::uint64_t probe_t = 40;
  const auto exact = exact_zchain_survival(n, k, probe_t);
  const std::uint64_t trials = 30000;
  std::uint64_t survived = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    Rng rng(99, trial);
    const std::uint64_t tau = sample_absorption_time(n, k, probe_t + 1, rng);
    if (tau > probe_t) ++survived;
  }
  const double empirical =
      static_cast<double>(survived) / static_cast<double>(trials);
  EXPECT_NEAR(empirical, exact.survival[probe_t], 0.01);
}

/// The hitting-time formula against the truncated absorbed chain
/// iterated step by step: P(tau > t) = 1 - P(Z_t = 0).  From start <= 5
/// no path reaches the cap of 512 within 300 rounds.
TEST(ZChainExact, HittingTimeFormulaMatchesTheIteratedChain) {
  for (const std::uint32_t n : {16u, 64u}) {
    const DenseMatrix chain =
        truncated_chain(512, 3ULL * n / 4, 1.0 / n, /*absorbing=*/true);
    for (const std::uint64_t k : {1ull, 5ull}) {
      const auto r = exact_zchain_survival(n, k, 300);
      std::vector<double> x(chain.rows(), 0.0);
      x[k] = 1.0;
      for (std::uint64_t t = 1; t <= 300; ++t) {
        x = chain.left_multiply(x);
        EXPECT_NEAR(r.survival[t], 1.0 - x[0], 1e-12)
            << "n=" << n << " k=" << k << " t=" << t;
      }
    }
  }
}

TEST(ZChainExact, InvalidArgumentsThrow) {
  EXPECT_THROW((void)exact_zchain_survival(1, 3, 10), std::invalid_argument);
}

TEST(LeakyQueueExact, RateConservationForcesPEmptyOneMinusLambda) {
  // Rate balance in stationarity: the served rate P(Z >= 1) must equal
  // the arrival rate lambda, so P(Z = 0) = 1 - lambda *exactly*.
  for (const double lambda : {0.25, 0.5, 0.75, 0.9}) {
    const auto q = exact_leaky_queue_stationary(64, lambda);
    EXPECT_NEAR(q.p_empty, 1.0 - lambda, 1e-8) << "lambda=" << lambda;
  }
}

TEST(LeakyQueueExact, PmfIsADistributionWithMonotoneUpperTail) {
  const auto q = exact_leaky_queue_stationary(32, 0.75);
  double total = 0.0;
  for (const double v : q.pmf) {
    EXPECT_GE(v, -1e-15);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(q.mean, 0.0);
}

TEST(LeakyQueueExact, QueueGrowsAsLambdaApproachesOne) {
  double prev_mean = -1.0;
  std::uint64_t prev_q999 = 0;
  for (const double lambda : {0.5, 0.75, 0.9, 0.97}) {
    const auto q = exact_leaky_queue_stationary(64, lambda);
    EXPECT_GT(q.mean, prev_mean) << "lambda=" << lambda;
    EXPECT_GE(q.q999, prev_q999) << "lambda=" << lambda;
    prev_mean = q.mean;
    prev_q999 = q.q999;
  }
}

TEST(LeakyQueueExact, MatchesSimulatedLeakyBinsOccupancy) {
  // The exact single-queue law is the marginal of the n-bin simulation:
  // compare the stationary load histogram pooled across bins and rounds.
  const std::uint32_t n = 64;
  const double lambda = 0.75;
  const auto exact = exact_leaky_queue_stationary(n, lambda);

  LeakyBinsProcess proc(LoadConfig(n, 1), lambda, Rng(31337));
  proc.run(2000);  // burn-in
  std::vector<double> empirical(16, 0.0);
  const int rounds = 4000;
  for (int t = 0; t < rounds; ++t) {
    proc.step();
    for (const std::uint32_t load : proc.loads()) {
      if (load < empirical.size()) empirical[load] += 1.0;
    }
  }
  for (double& v : empirical) v /= static_cast<double>(rounds) * n;
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_NEAR(empirical[k], exact.pmf[k], 0.02) << "k=" << k;
  }
}

/// The cut-balance recursion against a direct linear solve of the
/// truncated reflecting chain (its mass past 256 is far below 1e-10).
TEST(LeakyQueueExact, CutBalanceMatchesTheTruncatedChainSolve) {
  const std::uint32_t n = 16;
  const std::size_t cap = 256;
  for (const double lambda : {0.5, 0.75, 0.9}) {
    const std::vector<double> pi = stationary_distribution(
        truncated_chain(cap, n, lambda / n, /*absorbing=*/false));
    const auto q = exact_leaky_queue_stationary(n, lambda, cap);
    ASSERT_EQ(q.pmf.size(), pi.size());
    double l1 = 0.0;
    for (std::size_t k = 0; k <= cap; ++k) l1 += std::abs(q.pmf[k] - pi[k]);
    EXPECT_LE(l1, 1e-10) << "lambda=" << lambda;
  }
}

/// The tail quantile sums P(queue > k) from the top of the pmf.  A power
/// iteration stopped at an L1 change of 1e-12 read 341 here: it sits
/// about 1e-9 short of stationarity in the tail, exactly where the
/// quantile is read.
TEST(LeakyQueueExact, NearCriticalTailQuantileIsPinned) {
  EXPECT_EQ(exact_leaky_queue_stationary(64, 0.97).q999, 337u);
}

TEST(LeakyQueueExact, InvalidLambdaThrows) {
  EXPECT_THROW((void)exact_leaky_queue_stationary(16, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)exact_leaky_queue_stationary(16, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)exact_leaky_queue_stationary(16, 1.5),
               std::invalid_argument);
  EXPECT_THROW((void)exact_leaky_queue_stationary(1, 0.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace rbb

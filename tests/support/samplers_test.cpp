// Statistical correctness tests for the exact samplers: moments and
// chi-square goodness of fit against the exact pmfs from bounds.hpp.
#include "support/samplers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "support/bounds.hpp"

namespace rbb {
namespace {

/// Chi-square statistic of `counts` against Binomial(n, p), pooling cells
/// with expected count < 5 into the tail.
double binomial_chi_square(const std::vector<std::uint64_t>& counts,
                           std::uint64_t draws, std::uint64_t n, double p,
                           int* df_out) {
  double chi2 = 0.0;
  double pooled_expected = 0.0;
  double pooled_observed = 0.0;
  int df = -1;  // one constraint: totals match
  for (std::size_t k = 0; k <= n && k < counts.size(); ++k) {
    const double expected =
        binomial_pmf(n, p, k) * static_cast<double>(draws);
    const double observed = static_cast<double>(counts[k]);
    if (expected < 5.0) {
      pooled_expected += expected;
      pooled_observed += observed;
      continue;
    }
    chi2 += (observed - expected) * (observed - expected) / expected;
    ++df;
  }
  if (pooled_expected > 1.0) {
    chi2 += (pooled_observed - pooled_expected) *
            (pooled_observed - pooled_expected) / pooled_expected;
    ++df;
  }
  *df_out = std::max(df, 1);
  return chi2;
}

TEST(BinomialSampler, DegenerateCases) {
  Rng rng(1);
  EXPECT_EQ(BinomialSampler(0, 0.5)(rng), 0u);
  EXPECT_EQ(BinomialSampler(10, 0.0)(rng), 0u);
  EXPECT_EQ(BinomialSampler(10, 1.0)(rng), 10u);
}

TEST(BinomialSampler, RejectsBadProbability) {
  EXPECT_THROW(BinomialSampler(10, -0.1), std::invalid_argument);
  EXPECT_THROW(BinomialSampler(10, 1.1), std::invalid_argument);
}

TEST(BinomialSampler, ResultNeverExceedsTrials) {
  Rng rng(2);
  const BinomialSampler sampler(20, 0.5);
  for (int i = 0; i < 10000; ++i) EXPECT_LE(sampler(rng), 20u);
}

TEST(BinomialSampler, TetrisLawHasCorrectMean) {
  // The law driving the whole analysis: Bin(3n/4, 1/n), mean 3/4.
  constexpr std::uint32_t n = 1024;
  Rng rng(3);
  const BinomialSampler sampler(n * 3 / 4, 1.0 / n);
  constexpr int kDraws = 400000;
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(sampler(rng));
  EXPECT_NEAR(sum / kDraws, 0.75, 0.01);
}

struct BinomialCase {
  std::uint64_t n;
  double p;
};

class BinomialChiSquare : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialChiSquare, MatchesExactPmf) {
  const auto [n, p] = GetParam();
  Rng rng(n * 31 + static_cast<std::uint64_t>(p * 1000));
  const BinomialSampler sampler(n, p);
  constexpr std::uint64_t kDraws = 200000;
  std::vector<std::uint64_t> counts(n + 2, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const std::uint64_t k = sampler(rng);
    ASSERT_LE(k, n);
    ++counts[k];
  }
  int df = 0;
  const double chi2 = binomial_chi_square(counts, kDraws, n, p, &df);
  // p ~ 1e-4 threshold approximation: df + 4 sqrt(2 df) + 10.
  const double threshold =
      static_cast<double>(df) + 4.0 * std::sqrt(2.0 * df) + 10.0;
  EXPECT_LT(chi2, threshold) << "n=" << n << " p=" << p << " df=" << df;
}

INSTANTIATE_TEST_SUITE_P(
    Laws, BinomialChiSquare,
    ::testing::Values(BinomialCase{10, 0.5},      // inversion
                      BinomialCase{7, 0.1},       // inversion, small np
                      BinomialCase{768, 0.001},   // the Tetris regime
                      BinomialCase{40, 0.5},      // BTRD, small n
                      BinomialCase{100, 0.3},     // BTRD
                      BinomialCase{1000, 0.05},   // BTRD, np = 50
                      BinomialCase{400, 0.9},     // flipped p > 1/2
                      BinomialCase{64, 0.25}));

TEST(Occupancy, ThrowConservesBalls) {
  Rng rng(11);
  const auto counts = occupancy_throw(1000, 64, rng);
  EXPECT_EQ(counts.size(), 64u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 1000u);
}

TEST(Occupancy, SingleBinGetsEverything) {
  Rng rng(14);
  EXPECT_EQ(occupancy_throw(42, 1, rng)[0], 42u);
}

TEST(Occupancy, ThrowFirstBinMeanIsBinomial) {
  // The first-bin marginal is Binomial(balls, 1/bins).
  Rng rng(15);
  constexpr std::uint64_t kBalls = 96;
  constexpr std::uint32_t kBins = 8;
  constexpr int kDraws = 60000;
  double sum_throw = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    sum_throw += occupancy_throw(kBalls, kBins, rng)[0];
  }
  const double expected = static_cast<double>(kBalls) / kBins;
  EXPECT_NEAR(sum_throw / kDraws, expected, 0.1);
}

}  // namespace
}  // namespace rbb

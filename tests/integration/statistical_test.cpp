// Deeper statistical property tests crossing modules: distributional
// identities that must hold between independent implementations, exact
// laws for small cases, and uniformity of the randomized queue policy.
// All tests use fixed seeds and tolerances wide enough to be flake-free.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "analysis/experiments.hpp"
#include "coupling/coupling.hpp"
#include "tetris/tetris.hpp"
#include "baselines/independent_walks.hpp"
#include "core/config.hpp"
#include "core/process.hpp"
#include "core/kernel/token_kernel.hpp"
#include "core/token_process.hpp"
#include "par/sharded_token_process.hpp"
#include "support/bounds.hpp"
#include "../statistical/stat_oracle.hpp"

namespace rbb {
namespace {

TEST(Statistical, RandomPolicyPopIsUniform) {
  // The token core's random policy must release a uniform member of the
  // queue on both streams (xoshiro below(count) and the counter stream's
  // pop-select slot): pile 5 tokens in bin 0, run one round -- only bin
  // 0 releases -- and chi-square which token moved.
  constexpr std::uint32_t kPile = 5;
  constexpr std::uint64_t kDraws = 50000;
  const std::vector<std::uint32_t> pile(kPile, 0u);
  const kernel::TokenOptions random{.policy = QueuePolicy::kRandom};
  // Exactly one token moved: the one with progress 1.
  const auto released = [](const auto& proc) {
    std::uint32_t t = 0;
    while (proc.progress(t) == 0) ++t;
    return t;
  };
  std::vector<std::uint64_t> seq(kPile, 0);
  std::vector<std::uint64_t> counter(kPile, 0);
  Rng rng(1);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    kernel::SequentialTokenProcess a(8, pile, rng.split(), random);
    a.step();
    ++seq[released(a)];
    par::SequentialCounterTokenProcess b(8, pile, i, random);
    b.step();
    ++counter[released(b)];
  }
  const double bound = testing::chi_square_bound(kPile - 1);
  EXPECT_LT(testing::chi_square_uniform(seq), bound);
  EXPECT_LT(testing::chi_square_uniform(counter), bound);
}

TEST(Statistical, SingleRoundArrivalsAreBinomial) {
  // From one-per-bin, the arrivals into bin 0 in one round are
  // Binomial(n, 1/n) exactly (all n bins release one ball u.a.r.).
  constexpr std::uint32_t n = 64;
  constexpr int kTrials = 60000;
  Rng rng(2);
  std::vector<std::uint64_t> counts(n + 1, 0);
  for (int i = 0; i < kTrials; ++i) {
    RepeatedBallsProcess proc(LoadConfig(n, 1), rng.split());
    proc.step();
    // one-per-bin: every bin had load 1, so floor(Q0 - 1, 0) = 0 and
    // Q0 after the round equals the arrival count.
    ++counts[proc.loads()[0]];
  }
  // Compare P(X = 0), P(X = 1), P(X = 2) with the exact pmf.
  for (std::uint64_t k = 0; k <= 2; ++k) {
    const double expected = binomial_pmf(n, 1.0 / n, k);
    const double observed =
        static_cast<double>(counts[k]) / static_cast<double>(kTrials);
    EXPECT_NEAR(observed, expected, 0.01) << "k=" << k;
  }
}

TEST(Statistical, ExactTwoBinRoundDistribution) {
  // n = 2, start (1,1): after one round the configuration is (0,2), (1,1)
  // or (2,0) with probabilities 1/4, 1/2, 1/4 exactly.
  constexpr int kTrials = 100000;
  Rng rng(3);
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> counts;
  for (int i = 0; i < kTrials; ++i) {
    RepeatedBallsProcess proc(LoadConfig{1, 1}, rng.split());
    proc.step();
    ++counts[{proc.loads()[0], proc.loads()[1]}];
  }
  EXPECT_NEAR((counts[{0, 2}] / static_cast<double>(kTrials)), 0.25, 0.01);
  EXPECT_NEAR((counts[{1, 1}] / static_cast<double>(kTrials)), 0.50, 0.01);
  EXPECT_NEAR((counts[{2, 0}] / static_cast<double>(kTrials)), 0.25, 0.01);
}

TEST(Statistical, IndependentWalksOccupancyIsExactlyOneShot) {
  // After any round, the independent-walks load vector on the clique is a
  // fresh n-ball occupancy: P(bin 0 empty) = (1 - 1/n)^n.
  constexpr std::uint32_t n = 32;
  constexpr int kTrials = 40000;
  Rng rng(4);
  int empty0 = 0;
  for (int i = 0; i < kTrials; ++i) {
    std::vector<std::uint32_t> start(n);
    for (std::uint32_t j = 0; j < n; ++j) start[j] = j;
    IndependentWalksProcess proc(n, std::move(start), nullptr, rng.split());
    proc.step();
    if (proc.loads()[0] == 0) ++empty0;
  }
  const double expected = std::pow(1.0 - 1.0 / n, n);
  EXPECT_NEAR(empty0 / static_cast<double>(kTrials), expected, 0.01);
}

TEST(Statistical, GraphEquilibriumEmptyFractionByDegree) {
  // On regular graphs the equilibrium empty fraction is close to the
  // clique's (~0.41 mean) -- degree shifts it only mildly.  Property
  // sweep over three regular topologies.
  constexpr std::uint32_t n = 256;
  Rng graph_rng(5);
  for (const std::string name : {"cycle", "torus", "hypercube"}) {
    const Graph g = make_named_graph(name, n, graph_rng);
    Rng rng(6);
    RepeatedBallsProcess proc(LoadConfig(n, 1), &g, rng);
    proc.run(500);  // settle
    double sum = 0.0;
    constexpr int kWindow = 1500;
    for (int t = 0; t < kWindow; ++t) {
      sum += static_cast<double>(proc.step().empty_bins);
    }
    const double mean_empty = sum / kWindow / n;
    EXPECT_GT(mean_empty, 0.30) << name;
    EXPECT_LT(mean_empty, 0.50) << name;
  }
}

TEST(Statistical, SerializeRoundTripRandomConfigs) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto bins = static_cast<std::uint32_t>(1 + rng.below(64));
    const std::uint64_t balls = rng.below(200);
    const LoadConfig q =
        make_config(InitialConfig::kRandom, bins, balls, rng);
    EXPECT_EQ(parse_config(serialize_config(q)), q);
  }
}

TEST(Statistical, DelayMeanMatchesLoadIdentity) {
  // Little's-law-style identity: mean waiting time over releases equals
  // (mean queue length behind the server) ~ E[load | busy] - 1 in
  // equilibrium.  With empty fraction ~0.41, E[load | busy] ~ 1/0.59
  // ~ 1.7, predicting mean delay ~0.7 -- confirmed within 10%.
  DelayParams p;
  p.n = 512;
  p.trials = 2;
  const DelayResult r = run_delays(p);
  EXPECT_NEAR(r.mean_delay, 0.7, 0.07);
}

TEST(Statistical, TetrisEmptyFractionMatchesFixedPoint) {
  // Tetris equilibrium: departures = (1 - empty) n balls leave, 3n/4
  // arrive; mass balance at stationarity forces empty -> 1/4 exactly
  // (the throughput identity 1 - empty = 3/4).
  constexpr std::uint32_t n = 512;
  Rng rng(8);
  TetrisProcess proc(make_config(InitialConfig::kRandom, n, n, rng), rng);
  proc.run(2000);
  double sum = 0.0;
  constexpr int kWindow = 4000;
  for (int t = 0; t < kWindow; ++t) {
    sum += static_cast<double>(proc.step().empty_bins);
  }
  EXPECT_NEAR(sum / kWindow / n, 0.25, 0.02);
}

TEST(Statistical, RepeatedProcessEmptyFractionFixedPoint) {
  // The analogous identity for the original process: in equilibrium the
  // empty fraction e* solves a fixed-point equation; the measured value
  // is ~0.414 (stable across sizes; cf. E3).  Regression-test the value
  // so distributional changes to the kernel are caught.
  constexpr std::uint32_t n = 1024;
  Rng rng(9);
  RepeatedBallsProcess proc(LoadConfig(n, 1), rng);
  proc.run(2000);
  double sum = 0.0;
  constexpr int kWindow = 6000;
  for (int t = 0; t < kWindow; ++t) {
    sum += static_cast<double>(proc.step().empty_bins);
  }
  EXPECT_NEAR(sum / kWindow / n, 0.414, 0.01);
}

TEST(Statistical, CouplingSharedDestinationsAreUniform) {
  // The coupled processes' shared arrival draws must remain uniform:
  // after many coupled rounds, per-bin Tetris loads have no positional
  // bias (compare first-half vs second-half total mass).
  constexpr std::uint32_t n = 256;
  Rng rng(10);
  LoadConfig start = make_config(InitialConfig::kRandom, n, n, rng);
  if (empty_bins(start) < n / 4) {
    RepeatedBallsProcess warm(std::move(start), rng.split());
    warm.step();
    start = warm.loads();
  }
  CoupledProcesses coupled(start, rng.split());
  coupled.run(2000);
  std::uint64_t first_half = 0;
  std::uint64_t second_half = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    (u < n / 2 ? first_half : second_half) += coupled.tetris_loads()[u];
  }
  const double ratio = static_cast<double>(first_half) /
                       static_cast<double>(first_half + second_half);
  EXPECT_NEAR(ratio, 0.5, 0.08);
}

}  // namespace
}  // namespace rbb

// Tests for the Tetris process: round semantics, first-empty tracking
// (Lemma 4 machinery), the negative-drift behaviour, and the D1 arrival-
// sampling ablation equivalence.
#include "tetris/tetris.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "support/bounds.hpp"

namespace rbb {
namespace {

TEST(Tetris, RejectsEmptyConfig) {
  EXPECT_THROW(TetrisProcess(LoadConfig{}, Rng(1)), std::invalid_argument);
}

TEST(Tetris, DefaultArrivalsAreThreeQuarters) {
  const TetrisProcess proc(LoadConfig(16, 1), Rng(1));
  EXPECT_EQ(proc.arrivals_per_round(), 12u);
  const TetrisProcess proc2(LoadConfig(10, 1), Rng(1));
  EXPECT_EQ(proc2.arrivals_per_round(), 7u);  // floor(30/4)
}

TEST(Tetris, BallAccountingPerRound) {
  // total(t+1) = total(t) - #nonempty(t) + arrivals.
  Rng rng(2);
  LoadConfig q = make_config(InitialConfig::kRandom, 32, 32, rng);
  TetrisProcess proc(std::move(q), rng);
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t before = proc.total_balls();
    const std::uint32_t nonempty =
        proc.bin_count() - proc.empty_bins();
    const TetrisRoundStats s = proc.step();
    ASSERT_EQ(s.total_balls,
              before - nonempty + proc.arrivals_per_round());
    proc.check_invariants();
  }
}

TEST(Tetris, IncrementalStatsStayExact) {
  Rng rng(3);
  TetrisProcess proc(make_config(InitialConfig::kAllInOne, 24, 24, rng), rng);
  for (int t = 0; t < 200; ++t) {
    const TetrisRoundStats s = proc.step();
    ASSERT_EQ(s.max_load, max_load(proc.loads()));
    ASSERT_EQ(s.empty_bins, empty_bins(proc.loads()));
  }
}

TEST(Tetris, InitiallyEmptyBinsHaveFirstEmptyZero) {
  LoadConfig q{2, 0, 1, 0};
  const TetrisProcess proc(std::move(q), Rng(4));
  EXPECT_EQ(proc.first_empty_round(1), 0u);
  EXPECT_EQ(proc.first_empty_round(3), 0u);
  EXPECT_EQ(proc.first_empty_round(0), TetrisProcess::kNeverEmptied);
  EXPECT_FALSE(proc.all_emptied_once());
}

TEST(Tetris, FirstEmptyDetectedExactly) {
  // Deterministic check: replay the process and recompute first-empty
  // rounds from the load trajectories.
  Rng rng(5);
  TetrisProcess proc(make_config(InitialConfig::kGeometric, 16, 16, rng),
                     rng);
  std::vector<std::uint64_t> expected(16, TetrisProcess::kNeverEmptied);
  for (std::uint32_t u = 0; u < 16; ++u) {
    if (proc.loads()[u] == 0) expected[u] = 0;
  }
  for (std::uint64_t t = 1; t <= 300; ++t) {
    proc.step();
    for (std::uint32_t u = 0; u < 16; ++u) {
      if (proc.loads()[u] == 0 &&
          expected[u] == TetrisProcess::kNeverEmptied) {
        expected[u] = t;
      }
    }
  }
  for (std::uint32_t u = 0; u < 16; ++u) {
    EXPECT_EQ(proc.first_empty_round(u), expected[u]) << "bin " << u;
  }
}

TEST(Tetris, Lemma4DrainWithinFiveN) {
  // From all-in-one with n = 256, every bin should empty within 5n rounds
  // (the Lemma-4 bound; failure probability e^{-alpha n}).
  constexpr std::uint32_t n = 256;
  Rng rng(6);
  TetrisProcess proc(make_config(InitialConfig::kAllInOne, n, n, rng), rng);
  const std::uint64_t drained = proc.run_until_all_emptied(10 * n);
  ASSERT_NE(drained, TetrisProcess::kNeverEmptied);
  EXPECT_LE(drained, 5ull * n);
  EXPECT_TRUE(proc.all_emptied_once());
  EXPECT_EQ(proc.max_first_empty_round(), drained);
}

TEST(Tetris, NegativeDriftKeepsLoadsSmall) {
  // Lemma 6 at test scale: window max load stays O(log n) from a
  // legitimate start.
  constexpr std::uint32_t n = 512;
  Rng rng(7);
  TetrisProcess proc(make_config(InitialConfig::kOnePerBin, n, n, rng), rng);
  std::uint32_t wmax = 0;
  for (std::uint32_t t = 0; t < 20 * n; ++t) {
    wmax = std::max(wmax, proc.step().max_load);
  }
  EXPECT_LE(wmax, 6.0 * log2n(n));
}

TEST(Tetris, CustomArrivalRateRespected) {
  Rng rng(8);
  TetrisProcess proc(LoadConfig(16, 1), rng, 4);
  EXPECT_EQ(proc.arrivals_per_round(), 4u);
  const std::uint64_t before = proc.total_balls();
  proc.step();
  // 16 non-empty bins discard 16 balls, 4 arrive.
  EXPECT_EQ(proc.total_balls(), before - 16 + 4);
}

TEST(Tetris, SupercriticalArrivalsGrowMass) {
  // arrivals > n: total mass must grow every round -- the drift ablation.
  Rng rng(9);
  constexpr std::uint32_t n = 64;
  TetrisProcess proc(LoadConfig(n, 1), rng, 2 * n);
  const std::uint64_t before = proc.total_balls();
  proc.run(50);
  EXPECT_GT(proc.total_balls(), before);
}

TEST(Tetris, DeterministicForSeed) {
  auto run = [] {
    Rng rng(11);
    TetrisProcess proc(LoadConfig(32, 1), rng);
    proc.run(100);
    return proc.loads();
  };
  EXPECT_EQ(run(), run());
}

// Property sweep: Lemma 4 at several sizes and starting profiles.
class TetrisDrainSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, InitialConfig>> {
};

TEST_P(TetrisDrainSweep, AllBinsEmptyWithinFiveN) {
  const auto [n, start] = GetParam();
  Rng rng(12 + n);
  TetrisProcess proc(make_config(start, n, n, rng), rng);
  const std::uint64_t drained = proc.run_until_all_emptied(10ull * n);
  ASSERT_NE(drained, TetrisProcess::kNeverEmptied)
      << "n=" << n << " start=" << to_string(start);
  EXPECT_LE(drained, 5ull * n);
}

INSTANTIATE_TEST_SUITE_P(
    StartsAndSizes, TetrisDrainSweep,
    ::testing::Combine(::testing::Values(64u, 256u, 1024u),
                       ::testing::Values(InitialConfig::kAllInOne,
                                         InitialConfig::kHalfLoaded,
                                         InitialConfig::kGeometric)));

}  // namespace
}  // namespace rbb

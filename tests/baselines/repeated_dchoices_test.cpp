// Tests for the repeated d-choices process ([36] extension, E15).
#include "baselines/repeated_dchoices.hpp"

#include <gtest/gtest.h>

#include "support/bounds.hpp"

namespace rbb {
namespace {

TEST(RepeatedDChoices, RejectsBadConstruction) {
  EXPECT_THROW(RepeatedDChoicesProcess(LoadConfig{}, 2, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(RepeatedDChoicesProcess(LoadConfig(4, 1), 0, Rng(1)),
               std::invalid_argument);
}

TEST(RepeatedDChoices, ConservesBalls) {
  Rng rng(2);
  RepeatedDChoicesProcess proc(make_config(InitialConfig::kRandom, 64, 64, rng),
                               2, rng);
  for (int t = 0; t < 200; ++t) {
    proc.step();
    ASSERT_EQ(total_balls(proc.loads()), 64u);
    proc.check_invariants();
  }
}

TEST(RepeatedDChoices, IncrementalStatsStayExact) {
  Rng rng(3);
  RepeatedDChoicesProcess proc(
      make_config(InitialConfig::kAllInOne, 32, 32, rng), 3, rng);
  for (int t = 0; t < 200; ++t) {
    const RoundStats s = proc.step();
    ASSERT_EQ(s.max_load, max_load(proc.loads()));
    ASSERT_EQ(s.empty_bins, empty_bins(proc.loads()));
  }
}

TEST(RepeatedDChoices, TwoChoicesFlattenLoads) {
  // d = 2 should hold the window max load strictly below d = 1 at n=1024.
  constexpr std::uint32_t n = 1024;
  auto window_max = [](std::uint32_t d) {
    Rng rng(4);
    RepeatedDChoicesProcess proc(
        make_config(InitialConfig::kOnePerBin, n, n, rng), d, rng);
    std::uint32_t wmax = 0;
    for (std::uint32_t t = 0; t < 10 * n; ++t) {
      wmax = std::max(wmax, proc.step().max_load);
    }
    return wmax;
  };
  const std::uint32_t d1 = window_max(1);
  const std::uint32_t d2 = window_max(2);
  EXPECT_LT(d2, d1);
  EXPECT_LE(d2, 6u);  // ~log log n regime
}

TEST(RepeatedDChoices, DeterministicForSeed) {
  auto run = [] {
    Rng rng(5);
    RepeatedDChoicesProcess proc(LoadConfig(32, 1), 2, rng);
    proc.run(100);
    return proc.loads();
  };
  EXPECT_EQ(run(), run());
}

TEST(RepeatedDChoices, DOneBehavesLikeOriginalProcess) {
  // d = 1 is definitionally the paper's process: departures equal the
  // count of bins non-empty at the start of the round, and the window max
  // load stays in the O(log n) regime.
  constexpr std::uint32_t n = 256;
  Rng rng(6);
  RepeatedDChoicesProcess proc(
      make_config(InitialConfig::kOnePerBin, n, n, rng), 1, rng);
  std::uint32_t wmax = 0;
  for (std::uint32_t t = 0; t < 10 * n; ++t) {
    const std::uint32_t empty_before = proc.empty_bins();
    const RoundStats s = proc.step();
    ASSERT_EQ(s.departures, n - empty_before);
    wmax = std::max(wmax, s.max_load);
  }
  EXPECT_LE(wmax, 6.0 * log2n(n));
}

}  // namespace
}  // namespace rbb

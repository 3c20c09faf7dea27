// Statistical oracle: the max-load regimes are ordered in the ball
// ratio -- more balls never lower the window maximum (E22, the Los &
// Sauerwald regime table).  Fixed seeds, generous windows: at n = 128
// over T = 8 n rounds the regimes sit far apart (c = 8 carries a mean
// load of 8 before any fluctuation), so the ordering is robust, not a
// knife-edge.
#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/experiments.hpp"

namespace rbb {
namespace {

double window_max_at(double ratio, Backend backend, std::uint64_t seed) {
  StabilityParams p;
  p.n = 128;
  p.balls = static_cast<std::uint64_t>(ratio * p.n);
  p.rounds = 8 * p.n;
  p.trials = 2;
  p.seed = seed;
  p.start = InitialConfig::kOnePerBin;
  p.plan.backend = backend;
  return run_stability(p).window_max.mean();
}

TEST(RegimeOrder, WindowMaxIsMonotoneInBallRatioSeq) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    const double c1 = window_max_at(1.0, Backend::kSeq, seed);
    const double c2 = window_max_at(2.0, Backend::kSeq, seed);
    const double c8 = window_max_at(8.0, Backend::kSeq, seed);
    EXPECT_GE(c2, c1) << "seed " << seed;
    EXPECT_GE(c8, c2) << "seed " << seed;
  }
}

TEST(RegimeOrder, WindowMaxIsMonotoneInBallRatioSharded) {
  for (const std::uint64_t seed : {1ull, 7ull}) {
    const double c1 = window_max_at(1.0, Backend::kSharded, seed);
    const double c2 = window_max_at(2.0, Backend::kSharded, seed);
    const double c8 = window_max_at(8.0, Backend::kSharded, seed);
    EXPECT_GE(c2, c1) << "seed " << seed;
    EXPECT_GE(c8, c2) << "seed " << seed;
  }
}

TEST(RegimeOrder, MixedEngineReproducesTheOrdering) {
  // The same ordering through the mixed-regime driver (unit weights,
  // uniform bins reduce it to the plain process with m = c n).
  const auto window_max = [](double ratio) {
    MixedParams p;
    p.n = 128;
    p.ball_ratio = ratio;
    p.rounds = 4 * p.n;
    p.trials = 2;
    p.seed = 99;
    return run_mixed(p).window_max.mean();
  };
  const double c1 = window_max(1.0);
  const double c2 = window_max(2.0);
  const double c8 = window_max(8.0);
  EXPECT_GE(c2, c1);
  EXPECT_GE(c8, c2);
}

TEST(RegimeOrder, WeightedMaxDominatesUnweightedUnderHotKeys) {
  // Zipf weights: the weighted maximum must weakly dominate the
  // unweighted one scaled by the minimum weight (sanity relation the
  // weighted observers must satisfy by construction).
  MixedParams p;
  p.n = 128;
  p.ball_ratio = 2.0;
  p.weights = "zipf";
  p.rounds = 2 * p.n;
  p.trials = 2;
  p.seed = 5;
  const MixedResult r = run_mixed(p);
  EXPECT_GE(r.window_max_weighted.mean(), r.window_max.mean());
}

}  // namespace
}  // namespace rbb

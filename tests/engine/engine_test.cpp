// Unit tests for the engine layer: stopping rules vs the round budget,
// observer composition, the lazy RoundContext, and the member surface
// of the SimProcess concept.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/process.hpp"
#include "core/kernel/token_kernel.hpp"
#include "support/bounds.hpp"
#include "tetris/tetris.hpp"

namespace rbb {
namespace {

RepeatedBallsProcess worst_case(std::uint32_t n, std::uint64_t seed) {
  Rng rng(seed);
  return {make_config(InitialConfig::kAllInOne, n, n, rng), rng.split()};
}

TEST(Engine, FixedWindowRunsExactlyThatManyRounds) {
  Engine engine(worst_case(32, 1));
  const EngineResult r = engine.run_rounds(100);
  EXPECT_EQ(r.rounds, 100u);
  EXPECT_FALSE(r.goal_reached);
  EXPECT_EQ(engine.process().round(), 100u);
}

TEST(Engine, RoundsDrivenAccumulatesAcrossRuns) {
  Engine engine(worst_case(32, 2));
  engine.run_rounds(10);
  engine.run_rounds(15);
  EXPECT_EQ(engine.process().round(), 25u);
}

TEST(Engine, UntilLegitimateStopsEarlyAndReportsGoal) {
  const std::uint32_t n = 64;
  Engine engine(worst_case(n, 3));
  const double threshold = 4.0 * log2n(n);
  const EngineResult r =
      engine.run(64ull * n, UntilLegitimate{threshold});
  EXPECT_TRUE(r.goal_reached);
  EXPECT_LT(r.rounds, 64ull * n);
  EXPECT_TRUE(engine.process().is_legitimate(4.0));
}

TEST(Engine, UntilLegitimateFromLegitimateStartRunsZeroRounds) {
  Rng rng(4);
  LoadConfig start = make_config(InitialConfig::kOnePerBin, 64, 64, rng);
  Engine engine(RepeatedBallsProcess(std::move(start), rng.split()));
  const EngineResult r =
      engine.run(1000, UntilLegitimate{4.0 * log2n(64)});
  EXPECT_TRUE(r.goal_reached);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(Engine, BudgetCapReportsNoGoal) {
  // An impossible goal: the budget must end the run.
  Engine engine(worst_case(32, 5));
  const EngineResult r = engine.run(
      7, [](const RepeatedBallsProcess&, std::uint64_t) { return false; });
  EXPECT_EQ(r.rounds, 7u);
  EXPECT_FALSE(r.goal_reached);
}

TEST(Engine, UntilAllEmptiedOnceMatchesLegacyTetrisHelper) {
  const std::uint32_t n = 48;
  Rng rng_a(6);
  Rng rng_b(6);
  LoadConfig start_a = make_config(InitialConfig::kAllInOne, n, n, rng_a);
  TetrisProcess legacy(std::move(start_a), rng_a.split());
  LoadConfig start_b = make_config(InitialConfig::kAllInOne, n, n, rng_b);
  Engine engine(TetrisProcess(std::move(start_b), rng_b.split()));
  const std::uint64_t cap = 64ull * n;
  const std::uint64_t legacy_round = legacy.run_until_all_emptied(cap);
  const EngineResult r = engine.run(cap, UntilAllEmptiedOnce{});
  ASSERT_TRUE(r.goal_reached);
  EXPECT_EQ(engine.process().max_first_empty_round(), legacy_round);
}

TEST(Engine, ObserversSeeEveryRound) {
  Engine engine(worst_case(32, 8));
  MeanEmptyFraction mean;
  MaxLoadTrajectory trajectory;
  engine.run_rounds(50, mean, trajectory);
  EXPECT_EQ(mean.rounds, 50u);
  ASSERT_EQ(trajectory.values.size(), 50u);
  // From all-in-one, round 1 releases a single ball: the max load must
  // start near n - 1 and never exceed it afterwards.
  EXPECT_GE(trajectory.values.front(), 30u);
  for (const std::uint32_t m : trajectory.values) {
    EXPECT_LE(m, 32u);
  }
}

TEST(Engine, RunningMaxAtCheckpointsMatchesTrajectory) {
  Engine engine(worst_case(32, 10));
  RunningMaxAtCheckpoints checkpoints({1, 5, 25});
  MaxLoadTrajectory trajectory;
  engine.run_rounds(25, checkpoints, trajectory);
  std::uint32_t running = 0;
  std::vector<std::uint32_t> expected;
  for (std::size_t t = 0; t < trajectory.values.size(); ++t) {
    running = std::max(running, trajectory.values[t]);
    if (t + 1 == 1 || t + 1 == 5 || t + 1 == 25) expected.push_back(running);
  }
  EXPECT_EQ(checkpoints.values(), expected);
}

TEST(RoundContext, LazyStatsMatchProcessAndMemoize) {
  Rng rng(15);
  LoadConfig start = make_config(InitialConfig::kHalfLoaded, 16, 16, rng);
  const RepeatedBallsProcess proc(std::move(start), rng.split());
  const RoundContext<RepeatedBallsProcess> ctx(proc, 42);
  EXPECT_EQ(ctx.round(), 42u);
  EXPECT_EQ(ctx.bins(), 16u);
  EXPECT_EQ(ctx.max_load(), proc.max_load());
  EXPECT_EQ(ctx.empty_bins(), proc.empty_bins());
  EXPECT_DOUBLE_EQ(ctx.empty_fraction(),
                   static_cast<double>(proc.empty_bins()) / 16.0);
  EXPECT_EQ(ctx.max_load(), proc.max_load());  // memoized second read
}

TEST(ProcessInterface, LoadSnapshotsForTokenCarryingVariants) {
  // Token core: loads come from the per-bin queue lengths.
  std::vector<std::uint32_t> placement{0, 0, 3};
  const kernel::SequentialTokenProcess token(4, placement, Rng(16));
  EXPECT_EQ(token.loads(), (LoadConfig{2, 0, 0, 1}));
  EXPECT_EQ(token.bin_count(), 4u);
}

}  // namespace
}  // namespace rbb

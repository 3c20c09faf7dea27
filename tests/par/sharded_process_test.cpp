// Invariance and parity tests for the sharded load-only kernel.
//
// The contracts pinned here are the reason src/par/ is usable for
// science at all:
//   * thread-count invariance  -- 1/2/8 workers, same trajectory,
//   * shard-size invariance    -- shards of 64/256/1024/1008 bins, same
//     trajectory,
//   * sequential parity        -- bit-identical to the plain
//     single-threaded reference loop making the same counter draws,
//   * SimProcess conformance   -- the engine drives it unchanged.
#include "par/sharded_process.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "engine/engine.hpp"

namespace rbb::par {
namespace {

constexpr std::uint32_t kN = 4096;
constexpr std::uint64_t kSeed = 0xfeedULL;
constexpr std::uint64_t kRounds = 48;

LoadConfig start_config(InitialConfig kind = InitialConfig::kOnePerBin) {
  Rng rng(99);
  return make_config(kind, kN, kN, rng);
}

/// Runs the sharded kernel and returns the trajectory of end-of-round
/// (max, empty, departures) plus the final load vector.
struct Trajectory {
  std::vector<RoundStats> stats;
  LoadConfig final_loads;

  bool operator==(const Trajectory& other) const {
    if (final_loads != other.final_loads) return false;
    if (stats.size() != other.stats.size()) return false;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      if (stats[i].max_load != other.stats[i].max_load ||
          stats[i].empty_bins != other.stats[i].empty_bins ||
          stats[i].departures != other.stats[i].departures) {
        return false;
      }
    }
    return true;
  }
};

Trajectory run_sharded(ShardedOptions options,
                       InitialConfig kind = InitialConfig::kOnePerBin) {
  ShardedRepeatedBallsProcess proc(start_config(kind), kSeed, options);
  Trajectory t;
  for (std::uint64_t r = 0; r < kRounds; ++r) t.stats.push_back(proc.step());
  t.final_loads = proc.loads();
  return t;
}

// --- thread-count invariance ------------------------------------------------

TEST(ShardedProcess, GoldenTrajectoryIdenticalFor1_2_8Workers) {
  const Trajectory one = run_sharded({.threads = 1, .shard_size = 256});
  const Trajectory two = run_sharded({.threads = 2, .shard_size = 256});
  const Trajectory eight = run_sharded({.threads = 8, .shard_size = 256});
  EXPECT_TRUE(one == two);
  EXPECT_TRUE(one == eight);
}

TEST(ShardedProcess, GlobalPoolMatchesPrivatePools) {
  const Trajectory global = run_sharded({.threads = 0, .shard_size = 256});
  const Trajectory inlined = run_sharded({.threads = 1, .shard_size = 256});
  EXPECT_TRUE(global == inlined);
}

// --- shard-size invariance --------------------------------------------------

TEST(ShardedProcess, TrajectoryIndependentOfShardSize) {
  const Trajectory s64 = run_sharded({.threads = 2, .shard_size = 64});
  const Trajectory s256 = run_sharded({.threads = 2, .shard_size = 256});
  const Trajectory s1024 = run_sharded({.threads = 2, .shard_size = 1024});
  // 1008 is not a power of two: its shards and stripes cut the leaves of
  // the count-split arrivals (core/kernel/count_split.hpp).
  const Trajectory s1008 = run_sharded({.threads = 2, .shard_size = 1008});
  const Trajectory whole = run_sharded({.threads = 2, .shard_size = kN});
  EXPECT_TRUE(s64 == s256);
  EXPECT_TRUE(s64 == s1024);
  EXPECT_TRUE(s64 == s1008);
  EXPECT_TRUE(s64 == whole);
}

TEST(ShardedProcess, InvarianceHoldsFromAdversarialStart) {
  const Trajectory a =
      run_sharded({.threads = 1, .shard_size = 64}, InitialConfig::kAllInOne);
  const Trajectory b =
      run_sharded({.threads = 8, .shard_size = 1024}, InitialConfig::kAllInOne);
  EXPECT_TRUE(a == b);
}

// --- parity with the sequential counter-RNG reference -----------------------

TEST(ShardedProcess, BitIdenticalToSequentialReference) {
  SequentialCounterProcess reference(start_config(), kSeed);
  ShardedRepeatedBallsProcess sharded(start_config(), kSeed,
                                      {.threads = 2, .shard_size = 256});
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    const RoundStats expect = reference.step();
    const RoundStats got = sharded.step();
    ASSERT_EQ(got.max_load, expect.max_load) << "round " << r;
    ASSERT_EQ(got.empty_bins, expect.empty_bins) << "round " << r;
    ASSERT_EQ(got.departures, expect.departures) << "round " << r;
    ASSERT_EQ(sharded.loads(), reference.loads()) << "round " << r;
  }
}

// --- process surface --------------------------------------------------------

TEST(ShardedProcess, ConservesBallsAndPassesInvariantChecks) {
  ShardedRepeatedBallsProcess proc(start_config(InitialConfig::kGeometric),
                                   kSeed, {.threads = 2, .shard_size = 128});
  EXPECT_EQ(proc.ball_count(), static_cast<std::uint64_t>(kN));
  for (int r = 0; r < 16; ++r) {
    proc.step();
    ASSERT_NO_THROW(proc.check_invariants());
    EXPECT_EQ(total_balls(proc.loads()), static_cast<std::uint64_t>(kN));
  }
  EXPECT_EQ(proc.round(), 16u);
}

TEST(ShardedProcess, ReassignReplacesConfiguration) {
  ShardedRepeatedBallsProcess proc(start_config(), kSeed, {.threads = 1});
  proc.run(4);
  Rng rng(5);
  const LoadConfig worst = make_config(InitialConfig::kAllInOne, kN, kN, rng);
  proc.reassign(worst);
  EXPECT_EQ(proc.max_load(), kN);
  EXPECT_EQ(proc.empty_bins(), kN - 1);
  ASSERT_NO_THROW(proc.check_invariants());

  LoadConfig wrong_total(kN, 1);
  wrong_total[0] = 3;  // kN + 2 balls
  EXPECT_THROW(proc.reassign(wrong_total), std::invalid_argument);
}

TEST(ShardedProcess, RejectsEmptyConfiguration) {
  EXPECT_THROW(ShardedRepeatedBallsProcess(LoadConfig{}, 1),
               std::invalid_argument);
}

TEST(ShardedProcess, SelfStabilizesFromAllInOne) {
  // Theorem 1b at small n: from the worst start the kernel reaches a
  // legitimate configuration well within 64 n rounds.
  ShardedRepeatedBallsProcess proc(start_config(InitialConfig::kAllInOne),
                                   kSeed, {.threads = 2, .shard_size = 256});
  bool legitimate = false;
  for (std::uint64_t r = 0; r < 64ull * kN && !legitimate; ++r) {
    proc.step();
    legitimate = proc.is_legitimate();
  }
  EXPECT_TRUE(legitimate);
}

// --- engine conformance -----------------------------------------------------

static_assert(SimProcess<ShardedRepeatedBallsProcess>,
              "the sharded kernel must satisfy the engine's concept");

TEST(ShardedProcess, EngineDrivesItLikeAnyOtherProcess) {
  Engine engine(ShardedRepeatedBallsProcess(start_config(), kSeed,
                                            {.threads = 2, .shard_size = 256}));
  WindowMaxLoad wmax;
  const EngineResult r = engine.run_rounds(kRounds, wmax);
  EXPECT_EQ(r.rounds, kRounds);

  // Same trajectory as driving step() by hand.
  const Trajectory direct = run_sharded({.threads = 2, .shard_size = 256});
  EXPECT_EQ(engine.process().loads(), direct.final_loads);
  std::uint32_t expect_wmax = 0;
  for (const RoundStats& s : direct.stats) {
    expect_wmax = std::max(expect_wmax, s.max_load);
  }
  EXPECT_EQ(wmax.window_max, expect_wmax);
}

}  // namespace
}  // namespace rbb::par

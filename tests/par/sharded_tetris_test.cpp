// Invariance and parity tests for the sharded Tetris kernel -- the
// refill-variant port the policy core bought (DESIGN.md Sect. 5).
//
// Contracts pinned, mirroring sharded_process_test.cpp:
//   * thread-count invariance  -- 1/2/8 workers, same trajectory,
//   * shard-size invariance    -- shards of 64/256/1024/1008 bins,
//   * sequential parity        -- bit-identical to the sequential
//     counter-stream sibling, INCLUDING the per-bin first-empty rounds
//     (Lemma 4's observable) and the evolving ball total,
//   * SimProcess conformance   -- the engine drives it unchanged.
#include "par/sharded_variants.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "engine/engine.hpp"

namespace rbb::par {
namespace {

constexpr std::uint32_t kN = 2048;
constexpr std::uint64_t kSeed = 0x7e7215ULL;
constexpr std::uint64_t kRounds = 40;

LoadConfig start_config(InitialConfig kind = InitialConfig::kRandom) {
  Rng rng(99);
  return make_config(kind, kN, kN, rng);
}

struct Trajectory {
  std::vector<TetrisRoundStats> stats;
  LoadConfig final_loads;
  std::vector<std::uint64_t> first_empty;

  bool operator==(const Trajectory& other) const {
    if (final_loads != other.final_loads) return false;
    if (first_empty != other.first_empty) return false;
    if (stats.size() != other.stats.size()) return false;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      if (stats[i].max_load != other.stats[i].max_load ||
          stats[i].empty_bins != other.stats[i].empty_bins ||
          stats[i].total_balls != other.stats[i].total_balls) {
        return false;
      }
    }
    return true;
  }
};

template <typename Process>
Trajectory record(Process& proc) {
  Trajectory t;
  for (std::uint64_t r = 0; r < kRounds; ++r) t.stats.push_back(proc.step());
  t.final_loads = proc.loads();
  for (std::uint32_t u = 0; u < proc.bin_count(); ++u) {
    t.first_empty.push_back(proc.first_empty_round(u));
  }
  return t;
}

Trajectory run_sharded(ShardedOptions options,
                       InitialConfig kind = InitialConfig::kRandom) {
  ShardedTetrisProcess proc(start_config(kind), kSeed, 0, options);
  return record(proc);
}

TEST(ShardedTetris, TrajectoryIdenticalFor1_2_8Workers) {
  const Trajectory one = run_sharded({.threads = 1, .shard_size = 256});
  const Trajectory two = run_sharded({.threads = 2, .shard_size = 256});
  const Trajectory eight = run_sharded({.threads = 8, .shard_size = 256});
  EXPECT_TRUE(one == two);
  EXPECT_TRUE(one == eight);
}

TEST(ShardedTetris, TrajectoryIndependentOfShardSize) {
  const Trajectory s64 = run_sharded({.threads = 2, .shard_size = 64});
  const Trajectory s256 = run_sharded({.threads = 2, .shard_size = 256});
  const Trajectory s1024 = run_sharded({.threads = 2, .shard_size = 1024});
  // 1008 is not a power of two: its shards and stripes cut the leaves of
  // the count-split arrivals (core/kernel/count_split.hpp).
  const Trajectory s1008 = run_sharded({.threads = 2, .shard_size = 1008});
  EXPECT_TRUE(s64 == s256);
  EXPECT_TRUE(s64 == s1024);
  EXPECT_TRUE(s64 == s1008);
}

TEST(ShardedTetris, BitIdenticalToSequentialCounterSibling) {
  SequentialCounterTetrisProcess reference(start_config(), kSeed);
  ShardedTetrisProcess sharded(start_config(), kSeed, 0,
                               {.threads = 2, .shard_size = 256});
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    const TetrisRoundStats expect = reference.step();
    const TetrisRoundStats got = sharded.step();
    ASSERT_EQ(got.max_load, expect.max_load) << "round " << r;
    ASSERT_EQ(got.empty_bins, expect.empty_bins) << "round " << r;
    ASSERT_EQ(got.total_balls, expect.total_balls) << "round " << r;
    ASSERT_EQ(sharded.loads(), reference.loads()) << "round " << r;
  }
  for (std::uint32_t u = 0; u < kN; ++u) {
    ASSERT_EQ(sharded.first_empty_round(u), reference.first_empty_round(u))
        << "bin " << u;
  }
}

TEST(ShardedTetris, ParityHoldsFromAdversarialStart) {
  SequentialCounterTetrisProcess reference(
      start_config(InitialConfig::kAllInOne), kSeed);
  ShardedTetrisProcess sharded(start_config(InitialConfig::kAllInOne), kSeed,
                               0, {.threads = 8, .shard_size = 64});
  Trajectory a = record(reference);
  Trajectory b = record(sharded);
  EXPECT_TRUE(a == b);
}

TEST(ShardedTetris, BallAccountingAndInvariantsHold) {
  ShardedTetrisProcess proc(start_config(), kSeed, 0,
                            {.threads = 2, .shard_size = 128});
  EXPECT_EQ(proc.arrivals_per_round(), kN * 3 / 4);
  for (int r = 0; r < 16; ++r) {
    proc.step();
    ASSERT_NO_THROW(proc.check_invariants());
    EXPECT_EQ(total_balls(proc.loads()), proc.total_balls());
  }
  EXPECT_EQ(proc.round(), 16u);
}

TEST(ShardedTetris, DrainsFromWorstStart) {
  // Lemma 4 at small n: every bin empties within the 64 n cap.
  ShardedTetrisProcess proc(start_config(InitialConfig::kAllInOne), kSeed, 0,
                            {.threads = 2, .shard_size = 256});
  const std::uint64_t drained = proc.run_until_all_emptied(64ull * kN);
  EXPECT_NE(drained, ShardedTetrisProcess::kNeverEmptied);
  EXPECT_EQ(drained, proc.max_first_empty_round());
}

TEST(ShardedTetris, RejectsArrivalsBeyondTheLeafDrawIndex) {
  // Count-split arrival i of a leaf draws on slot field i < 2^32.
  EXPECT_THROW(ShardedTetrisProcess(LoadConfig(kN, 1), kSeed,
                                    std::uint64_t{1} << 32),
               std::invalid_argument);
  EXPECT_NO_THROW(ShardedTetrisProcess(LoadConfig(kN, 1), kSeed,
                                       (std::uint64_t{1} << 32) - 1));
}

static_assert(SimProcess<ShardedTetrisProcess>,
              "the sharded Tetris kernel must satisfy the engine concept");
static_assert(SimProcess<SequentialCounterTetrisProcess>,
              "the counter-stream Tetris sibling must satisfy the engine "
              "concept");

TEST(ShardedTetris, EngineDrivesItWithStoppingRule) {
  Engine engine(ShardedTetrisProcess(start_config(InitialConfig::kAllInOne),
                                     kSeed, 0,
                                     {.threads = 2, .shard_size = 256}));
  const EngineResult r =
      engine.run(64ull * kN, UntilAllEmptiedOnce{});
  EXPECT_TRUE(r.goal_reached);
  EXPECT_TRUE(engine.process().all_emptied_once());
}

}  // namespace
}  // namespace rbb::par

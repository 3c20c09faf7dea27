// Invariance and parity tests for the sharded leaky-bins kernel
// (DESIGN.md Sect. 5): the Berenbrink et al. [18] dynamics at mega n.
//
// The subtle contract here is the ARRIVAL COUNT: Binomial(n, lambda) is
// one draw per round, not per bin, so the sharded kernel takes it from
// the round's derived counter substream BEFORE any phase runs -- these
// tests pin that the count (and hence the whole trajectory, including
// the evolving ball total) is identical across worker counts, shard
// sizes, and against the sequential counter-stream sibling.
#include "par/sharded_variants.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "engine/engine.hpp"

namespace rbb::par {
namespace {

constexpr std::uint32_t kN = 2048;
constexpr double kLambda = 0.75;
constexpr std::uint64_t kSeed = 0x1ea21ULL;
constexpr std::uint64_t kRounds = 40;

LoadConfig start_config(InitialConfig kind = InitialConfig::kOnePerBin) {
  Rng rng(99);
  return make_config(kind, kN, kN, rng);
}

struct Trajectory {
  std::vector<LeakyRoundStats> stats;
  LoadConfig final_loads;

  bool operator==(const Trajectory& other) const {
    if (final_loads != other.final_loads) return false;
    if (stats.size() != other.stats.size()) return false;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      if (stats[i].max_load != other.stats[i].max_load ||
          stats[i].empty_bins != other.stats[i].empty_bins ||
          stats[i].total_balls != other.stats[i].total_balls ||
          stats[i].arrivals != other.stats[i].arrivals) {
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
  return t;
}

Trajectory run_sharded(ShardedOptions options, double lambda = kLambda) {
  ShardedLeakyBinsProcess proc(start_config(), lambda, kSeed, options);
  return record(proc);
}

TEST(ShardedLeaky, TrajectoryIdenticalFor1_2_8Workers) {
  const Trajectory one = run_sharded({.threads = 1, .shard_size = 256});
  const Trajectory two = run_sharded({.threads = 2, .shard_size = 256});
  const Trajectory eight = run_sharded({.threads = 8, .shard_size = 256});
  EXPECT_TRUE(one == two);
  EXPECT_TRUE(one == eight);
}

TEST(ShardedLeaky, TrajectoryIndependentOfShardSize) {
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

TEST(ShardedLeaky, BitIdenticalToSequentialCounterSibling) {
  SequentialCounterLeakyBinsProcess reference(start_config(), kLambda, kSeed);
  ShardedLeakyBinsProcess sharded(start_config(), kLambda, kSeed,
                                  {.threads = 2, .shard_size = 256});
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    const LeakyRoundStats expect = reference.step();
    const LeakyRoundStats got = sharded.step();
    ASSERT_EQ(got.arrivals, expect.arrivals) << "round " << r;
    ASSERT_EQ(got.max_load, expect.max_load) << "round " << r;
    ASSERT_EQ(got.empty_bins, expect.empty_bins) << "round " << r;
    ASSERT_EQ(got.total_balls, expect.total_balls) << "round " << r;
    ASSERT_EQ(sharded.loads(), reference.loads()) << "round " << r;
  }
}

TEST(ShardedLeaky, ParityAcrossTheCriticalRate) {
  // lambda = 1 (no drift slack) stresses the arrival path the hardest.
  for (const double lambda : {0.5, 1.0}) {
    SequentialCounterLeakyBinsProcess reference(start_config(), lambda,
                                                kSeed);
    ShardedLeakyBinsProcess sharded(start_config(), lambda, kSeed,
                                    {.threads = 8, .shard_size = 64});
    Trajectory a = record(reference);
    Trajectory b = record(sharded);
    EXPECT_TRUE(a == b) << "lambda " << lambda;
  }
}

TEST(ShardedLeaky, BallAccountingAndInvariantsHold) {
  ShardedLeakyBinsProcess proc(start_config(), kLambda, kSeed,
                               {.threads = 2, .shard_size = 128});
  EXPECT_DOUBLE_EQ(proc.lambda(), kLambda);
  for (int r = 0; r < 16; ++r) {
    const LeakyRoundStats s = proc.step();
    ASSERT_NO_THROW(proc.check_invariants());
    EXPECT_EQ(total_balls(proc.loads()), s.total_balls);
    EXPECT_LE(s.arrivals, static_cast<std::uint64_t>(kN));
  }
}

TEST(ShardedLeaky, DegenerateRatesBehave) {
  // lambda = 0: pure drain, no arrivals ever; the system empties.
  ShardedLeakyBinsProcess drain(start_config(), 0.0, kSeed,
                                {.threads = 2, .shard_size = 256});
  for (std::uint32_t r = 0; r < 8; ++r) {
    EXPECT_EQ(drain.step().arrivals, 0u);
  }
  EXPECT_EQ(drain.total_balls(), 0u);
  EXPECT_EQ(drain.empty_bins(), kN);
}

TEST(ShardedLeaky, RejectsBadConstruction) {
  EXPECT_THROW(ShardedLeakyBinsProcess(LoadConfig{}, 0.5, kSeed),
               std::invalid_argument);
  EXPECT_THROW(ShardedLeakyBinsProcess(LoadConfig(16, 1), 1.5, kSeed),
               std::invalid_argument);
  EXPECT_THROW(ShardedLeakyBinsProcess(LoadConfig(16, 1), -0.1, kSeed),
               std::invalid_argument);
}

static_assert(SimProcess<ShardedLeakyBinsProcess>,
              "the sharded leaky-bins kernel must satisfy the engine "
              "concept");
static_assert(SimProcess<SequentialCounterLeakyBinsProcess>,
              "the counter-stream leaky sibling must satisfy the engine "
              "concept");

TEST(ShardedLeaky, EngineDrivesIt) {
  Engine engine(ShardedLeakyBinsProcess(start_config(), kLambda, kSeed,
                                        {.threads = 2, .shard_size = 256}));
  MeanEmptyFraction empty;
  const EngineResult r = engine.run_rounds(kRounds, empty);
  EXPECT_EQ(r.rounds, kRounds);
  EXPECT_GT(empty.mean(), 0.0);
}

}  // namespace
}  // namespace rbb::par

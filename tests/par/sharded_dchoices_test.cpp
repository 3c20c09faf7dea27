// Invariance and parity tests for the sharded repeated-d-choices kernel
// (batch-snapshot Greedy[d]; DESIGN.md Sect. 5, core/kernel/variants.hpp).
//
// The snapshot convention is exactly what makes the variant shardable:
// every choice reads the post-departure configuration, so the choose
// phase is read-only over cross-shard loads and the commit's load sums
// commute.  These tests pin that the convention really is
// schedule-independent -- 1/2/8 workers, shard sizes {64, 256, 1024},
// and the plain sequential counter-stream loop all produce bit-identical
// trajectories -- and that d = 1 degenerates to per-ball relaunching
// draw-for-draw (candidate slot (0, u) IS the relaunch slot u).
#include "par/sharded_variants.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "engine/engine.hpp"
#include "core/kernel/stream.hpp"

namespace rbb::par {
namespace {

constexpr std::uint32_t kN = 2048;
constexpr std::uint32_t kD = 2;
constexpr std::uint64_t kSeed = 0xdc01ce5ULL;
constexpr std::uint64_t kRounds = 40;

LoadConfig start_config(InitialConfig kind = InitialConfig::kOnePerBin) {
  Rng rng(99);
  return make_config(kind, kN, kN, rng);
}

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

template <typename Process>
Trajectory record(Process& proc) {
  Trajectory t;
  for (std::uint64_t r = 0; r < kRounds; ++r) t.stats.push_back(proc.step());
  t.final_loads = proc.loads();
  return t;
}

Trajectory run_sharded(ShardedOptions options, std::uint32_t d = kD,
                       InitialConfig kind = InitialConfig::kOnePerBin) {
  ShardedDChoicesProcess proc(start_config(kind), d, kSeed, options);
  return record(proc);
}

TEST(ShardedDChoices, TrajectoryIdenticalFor1_2_8Workers) {
  const Trajectory one = run_sharded({.threads = 1, .shard_size = 256});
  const Trajectory two = run_sharded({.threads = 2, .shard_size = 256});
  const Trajectory eight = run_sharded({.threads = 8, .shard_size = 256});
  EXPECT_TRUE(one == two);
  EXPECT_TRUE(one == eight);
}

TEST(ShardedDChoices, TrajectoryIndependentOfShardSize) {
  const Trajectory s64 = run_sharded({.threads = 2, .shard_size = 64});
  const Trajectory s256 = run_sharded({.threads = 2, .shard_size = 256});
  const Trajectory s1024 = run_sharded({.threads = 2, .shard_size = 1024});
  EXPECT_TRUE(s64 == s256);
  EXPECT_TRUE(s64 == s1024);
}

TEST(ShardedDChoices, BitIdenticalToSequentialCounterSibling) {
  SequentialCounterDChoicesProcess reference(start_config(), kD, kSeed);
  ShardedDChoicesProcess sharded(start_config(), kD, kSeed,
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

TEST(ShardedDChoices, ParityHoldsFromAdversarialStartAndLargerD) {
  SequentialCounterDChoicesProcess reference(
      start_config(InitialConfig::kAllInOne), 3, kSeed);
  ShardedDChoicesProcess sharded(start_config(InitialConfig::kAllInOne), 3,
                                 kSeed, {.threads = 8, .shard_size = 1024});
  Trajectory a = record(reference);
  Trajectory b = record(sharded);
  EXPECT_TRUE(a == b);
}

TEST(ShardedDChoices, DOneDegeneratesToPerBallRelaunching) {
  // With one candidate there is no choice: candidate slot (0, u) equals
  // the relaunch slot u, so the d = 1 instantiation replays the naive
  // per-ball loop that throws bin u's ball to index(round, u, n).
  ShardedDChoicesProcess d1(start_config(), 1, kSeed,
                            {.threads = 2, .shard_size = 256});
  const kernel::CounterStream stream(kSeed);
  LoadConfig loads = start_config();
  std::vector<bin_index_t> releasers;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    releasers.clear();
    for (bin_index_t u = 0; u < kN; ++u) {
      if (loads[u] > 0) {
        --loads[u];
        releasers.push_back(u);
      }
    }
    for (const bin_index_t u : releasers) {
      ++loads[stream.index(r, kernel::relaunch_slot(u), kN)];
    }
    d1.step();
    ASSERT_EQ(d1.loads(), loads) << "round " << r;
  }
}

TEST(ShardedDChoices, ConservesBallsAndPassesInvariantChecks) {
  ShardedDChoicesProcess proc(start_config(InitialConfig::kGeometric), kD,
                              kSeed, {.threads = 2, .shard_size = 128});
  EXPECT_EQ(proc.ball_count(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(proc.choices(), kD);
  for (int r = 0; r < 16; ++r) {
    proc.step();
    ASSERT_NO_THROW(proc.check_invariants());
    EXPECT_EQ(total_balls(proc.loads()), static_cast<std::uint64_t>(kN));
  }
}

TEST(ShardedDChoices, TwoChoicesFlattenTheMaximum) {
  // The power of two choices survives the snapshot convention: after a
  // long window from one-per-bin, d = 2 stays far below d = 1.
  const auto window_max = [](std::uint32_t d) {
    ShardedDChoicesProcess proc(start_config(), d, kSeed,
                                {.threads = 2, .shard_size = 256});
    std::uint32_t wmax = 0;
    for (std::uint32_t t = 0; t < 4 * kN; ++t) {
      wmax = std::max(wmax, proc.step().max_load);
    }
    return wmax;
  };
  const std::uint32_t d1 = window_max(1);
  const std::uint32_t d2 = window_max(2);
  EXPECT_LT(d2, d1);
  // Batch staleness costs a constant over classic greedy (decisions
  // read the pre-arrival snapshot), but the maximum stays in the
  // log-log regime, far under d = 1's ~2 log2 n ~ 22.
  EXPECT_LE(d2, 10u);
}

TEST(ShardedDChoices, RejectsBadConstruction) {
  EXPECT_THROW(ShardedDChoicesProcess(LoadConfig{}, 2, kSeed),
               std::invalid_argument);
  EXPECT_THROW(ShardedDChoicesProcess(LoadConfig(16, 1), 0, kSeed),
               std::invalid_argument);
}

static_assert(SimProcess<ShardedDChoicesProcess>,
              "the sharded d-choices kernel must satisfy the engine concept");
static_assert(SimProcess<SequentialCounterDChoicesProcess>,
              "the counter-stream d-choices sibling must satisfy the engine "
              "concept");

TEST(ShardedDChoices, EngineDrivesIt) {
  Engine engine(ShardedDChoicesProcess(start_config(), kD, kSeed,
                                       {.threads = 2, .shard_size = 256}));
  WindowMaxLoad wmax;
  const EngineResult r = engine.run_rounds(kRounds, wmax);
  EXPECT_EQ(r.rounds, kRounds);
  EXPECT_GE(wmax.window_max, 1u);
}

}  // namespace
}  // namespace rbb::par

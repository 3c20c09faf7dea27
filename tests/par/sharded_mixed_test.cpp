// Parity tests for the sharded mixed-regime kernel (DESIGN.md Sect. 5):
// weighted balls and heterogeneous bins stay bit-identical across the
// sequential counter-stream sibling, worker counts {1, 2, 8} and shard
// sizes {64, 256, 1024} -- including capacity-induced drops, whose
// commit-order sensitivity is exactly what the ascending-source drain
// of the scatter has to preserve.  A naive weighted oracle
// (mixed_reference.hpp) replays the round semantics straight from
// CounterRng scalar draws, so both instantiations are checked against
// an implementation that shares none of their bookkeeping.
#include "par/sharded_mixed.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/mixed_process.hpp"
#include "engine/engine.hpp"
#include "mixed_reference.hpp"
#include "par/sharded_variants.hpp"

namespace rbb::par {
namespace {

constexpr std::uint64_t kSeed = 0x310c8a11ULL;
constexpr std::uint64_t kRounds = 32;

MixedSpec spec_of(std::uint32_t bins, double ratio, const char* weights,
                  const char* profile) {
  return make_mixed_spec(bins, ratio, weights, profile);
}

struct Trajectory {
  std::vector<MixedRoundStats> stats;
  std::vector<load_t> final_loads;
  std::uint64_t dropped = 0;

  bool operator==(const Trajectory& other) const {
    if (final_loads != other.final_loads) return false;
    if (dropped != other.dropped) return false;
    if (stats.size() != other.stats.size()) return false;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      if (stats[i].max_load != other.stats[i].max_load ||
          stats[i].empty_bins != other.stats[i].empty_bins ||
          stats[i].departures != other.stats[i].departures ||
          stats[i].drops != other.stats[i].drops ||
          stats[i].max_weighted_load != other.stats[i].max_weighted_load ||
          stats[i].total_balls != other.stats[i].total_balls ||
          stats[i].total_weight != other.stats[i].total_weight) {
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
  t.dropped = proc.dropped_balls();
  return t;
}

Trajectory run_sharded(const MixedSpec& spec, ShardedOptions options) {
  ShardedMixedProcess proc(spec, kSeed, options);
  return record(proc);
}

// The drop-heavy capped profile is the hardest case: arrival ORDER
// decides which ball bounces, so any deviation from the sequential
// (u, j) order shows up immediately.
const MixedSpec kWeightedCapped = spec_of(1024, 8.0, "zipf", "capped");
const MixedSpec kBimodalTwoSpeed = spec_of(2048, 2.0, "bimodal", "two-speed");
const MixedSpec kStalled = spec_of(512, 0.5, "unit", "stalled-tenth");
const MixedSpec kOddStripes = spec_of(1000, 4.0, "zipf", "capped");

TEST(ShardedMixed, TrajectoryIdenticalFor1_2_8Workers) {
  for (const MixedSpec* spec :
       {&kWeightedCapped, &kBimodalTwoSpeed, &kStalled}) {
    const Trajectory one = run_sharded(*spec, {.threads = 1, .shard_size = 256});
    const Trajectory two = run_sharded(*spec, {.threads = 2, .shard_size = 256});
    const Trajectory eight =
        run_sharded(*spec, {.threads = 8, .shard_size = 256});
    EXPECT_TRUE(one == two) << spec->weights.name;
    EXPECT_TRUE(one == eight) << spec->weights.name;
  }
}

TEST(ShardedMixed, TrajectoryIndependentOfShardSize) {
  for (const MixedSpec* spec : {&kWeightedCapped, &kBimodalTwoSpeed}) {
    const Trajectory s64 = run_sharded(*spec, {.threads = 2, .shard_size = 64});
    const Trajectory s256 =
        run_sharded(*spec, {.threads = 2, .shard_size = 256});
    const Trajectory s1024 =
        run_sharded(*spec, {.threads = 2, .shard_size = 1024});
    EXPECT_TRUE(s64 == s256);
    EXPECT_TRUE(s64 == s1024);
  }
}

TEST(ShardedMixed, BitIdenticalToSequentialCounterSibling) {
  for (const MixedSpec* spec :
       {&kWeightedCapped, &kBimodalTwoSpeed, &kStalled}) {
    SequentialCounterMixedProcess reference(*spec, kSeed);
    ShardedMixedProcess sharded(*spec, kSeed,
                                {.threads = 2, .shard_size = 256});
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      const MixedRoundStats expect = reference.step();
      const MixedRoundStats got = sharded.step();
      ASSERT_EQ(got.max_load, expect.max_load) << "round " << r;
      ASSERT_EQ(got.drops, expect.drops) << "round " << r;
      ASSERT_EQ(got.max_weighted_load, expect.max_weighted_load)
          << "round " << r;
      ASSERT_EQ(sharded.loads(), reference.loads()) << "round " << r;
    }
  }
}

TEST(ShardedMixed, BothInstantiationsMatchTheNaiveWeightedOracle) {
  for (const MixedSpec* spec :
       {&kWeightedCapped, &kBimodalTwoSpeed, &kStalled, &kOddStripes}) {
    testing::MixedOracle oracle(*spec, kSeed);
    SequentialCounterMixedProcess seq(*spec, kSeed);
    ShardedMixedProcess sharded(*spec, kSeed,
                                {.threads = 2, .shard_size = 256});
    // Stripes of 400, 400 and 200 bins at n = 1000: longer than
    // kDrawChunk and not a multiple of it.
    ShardedMixedProcess odd(*spec, kSeed, {.threads = 2, .shard_size = 400});
    for (std::uint64_t r = 0; r < 12; ++r) {
      oracle.step();
      seq.step();
      sharded.step();
      odd.step();
      ASSERT_EQ(seq.loads(), oracle.loads()) << "round " << r;
      ASSERT_EQ(sharded.loads(), oracle.loads()) << "round " << r;
      ASSERT_EQ(odd.loads(), oracle.loads()) << "round " << r;
      ASSERT_EQ(odd.dropped_balls(), oracle.dropped) << "round " << r;
      ASSERT_EQ(seq.dropped_balls(), oracle.dropped) << "round " << r;
      for (std::uint32_t u = 0; u < spec->bins; u += 97) {
        ASSERT_EQ(seq.weighted_load(u), oracle.weighted_load(u))
            << "round " << r << " bin " << u;
      }
    }
  }
}

TEST(ShardedMixed, SequentialXoshiroCoreMatchesTheNaiveWeightedOracle) {
  for (const MixedSpec* spec :
       {&kWeightedCapped, &kBimodalTwoSpeed, &kStalled}) {
    testing::MixedOracle oracle(*spec, Rng(kSeed, 3));
    MixedProcess process(*spec, Rng(kSeed, 3));
    for (std::uint64_t r = 0; r < 12; ++r) {
      oracle.step();
      const MixedRoundStats stats = process.step();
      ASSERT_EQ(process.loads(), oracle.loads()) << "round " << r;
      ASSERT_EQ(process.dropped_balls(), oracle.dropped) << "round " << r;
      ASSERT_EQ(stats.total_balls, spec->balls - oracle.dropped)
          << "round " << r;
      for (std::uint32_t u = 0; u < spec->bins; ++u) {
        for (std::uint32_t c = 0; c < oracle.classes(); ++c) {
          ASSERT_EQ(process.class_load(u, c),
                    oracle.counts[static_cast<std::size_t>(u) *
                                      oracle.classes() +
                                  c])
              << "round " << r << " bin " << u << " class " << c;
        }
      }
    }
    ASSERT_NO_THROW(process.check_invariants());
  }
}

TEST(ShardedMixed, InvariantsHoldAcrossConfigurations) {
  ShardedMixedProcess proc(kWeightedCapped, kSeed,
                           {.threads = 2, .shard_size = 128});
  for (int r = 0; r < 12; ++r) {
    proc.step();
    ASSERT_NO_THROW(proc.check_invariants());
  }
  EXPECT_GT(proc.dropped_balls(), 0u);  // capped at c = 8 must drop
}

static_assert(SimProcess<ShardedMixedProcess>,
              "the sharded mixed kernel must satisfy the engine concept");
static_assert(SimProcess<SequentialCounterMixedProcess>,
              "the counter-stream mixed sibling must satisfy the engine "
              "concept");

TEST(ShardedMixed, EngineDrivesItWithWeightedObservers) {
  Engine engine(
      ShardedMixedProcess(kBimodalTwoSpeed, kSeed,
                          {.threads = 2, .shard_size = 256}));
  WindowMaxLoad wmax;
  WindowMaxWeightedLoad wweighted;
  const EngineResult r = engine.run_rounds(kRounds, wmax, wweighted);
  EXPECT_EQ(r.rounds, kRounds);
  EXPECT_GE(wweighted.window_max, wmax.window_max);
}

TEST(ShardedMixed, NearLimitTotalsNeedSixtyFourBits) {
  // Regression for the support/types.hpp width contract at the m = 8n
  // mega regime: per-bin loads close to 2^31 make the SYSTEM totals
  // (ball count, weighted mass) and even single-bin weighted loads
  // exceed 32 bits, so any bookkeeping that narrows to uint32 snaps to
  // a wrong conservation sum here.  64 bins keep the round cheap; the
  // widths under test do not depend on n.
  constexpr load_t kPerClass = 700'000'000;  // 3 * 7e8 = 2.1e9 per bin
  MixedSpec spec;
  spec.bins = 64;
  spec.weights = {"hot", {1, 2, 8}, {1.0 / 3, 1.0 / 3, 1.0 / 3}};
  spec.rates.assign(spec.bins, 4);
  spec.capacities.assign(spec.bins, 0);
  spec.class_counts.assign(static_cast<std::size_t>(spec.bins) * 3,
                           kPerClass);
  spec.balls = static_cast<ball_count_t>(spec.bins) * 3 * kPerClass;
  ASSERT_GT(spec.balls, std::uint64_t{1} << 32);

  const weighted_load_t per_bin_weight =
      static_cast<weighted_load_t>(kPerClass) * (1 + 2 + 8);
  ASSERT_GT(per_bin_weight, std::uint64_t{1} << 32);

  SequentialCounterMixedProcess seq(spec, kSeed);
  ShardedMixedProcess sharded(spec, kSeed, {.threads = 2, .shard_size = 16});
  for (int r = 0; r < 3; ++r) {
    const MixedRoundStats a = seq.step();
    const MixedRoundStats b = sharded.step();
    ASSERT_EQ(a.total_balls, spec.balls);
    ASSERT_EQ(b.total_balls, spec.balls);
    ASSERT_EQ(a.total_weight,
              static_cast<weighted_load_t>(spec.bins) * per_bin_weight);
    ASSERT_GE(a.max_weighted_load, per_bin_weight - 8 * 4);
    ASSERT_EQ(a.max_weighted_load, b.max_weighted_load);
    ASSERT_EQ(seq.loads(), sharded.loads());
    ASSERT_NO_THROW(seq.check_invariants());
    ASSERT_NO_THROW(sharded.check_invariants());
  }
}

// --- threshold-variant parity (rides the same suite: both kernels are
// new schedule-free consumers of the candidate slot planes) ----------

TEST(ShardedThreshold, ParityAcrossWorkersShardSizesAndSibling) {
  Rng cfg_rng(7);
  const LoadConfig start =
      make_config(InitialConfig::kGeometric, 2048, 2048, cfg_rng);
  constexpr load_t kThresholdLoad = 2;
  constexpr std::uint32_t kProbes = 3;
  SequentialCounterThresholdProcess reference(start, kThresholdLoad, kProbes,
                                              kSeed);
  std::vector<ShardedThresholdProcess> variants;
  variants.emplace_back(start, kThresholdLoad, kProbes, kSeed,
                        ShardedOptions{.threads = 1, .shard_size = 64});
  variants.emplace_back(start, kThresholdLoad, kProbes, kSeed,
                        ShardedOptions{.threads = 2, .shard_size = 256});
  variants.emplace_back(start, kThresholdLoad, kProbes, kSeed,
                        ShardedOptions{.threads = 8, .shard_size = 1024});
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    reference.step();
    for (auto& v : variants) {
      v.step();
      ASSERT_EQ(v.loads(), reference.loads()) << "round " << r;
    }
  }
}

}  // namespace
}  // namespace rbb::par

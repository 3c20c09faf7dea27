// Parity tests for the sharded round driver (core/kernel/pipeline.hpp).
// run(rounds) takes the double-buffered epoch-protocol path whenever
// the executor can host a resident team; these tests pin that the
// trajectory of a step() loop vs run(R) is bit-identical, and both are
// bit-identical to the sequential counter-stream oracles -- for every
// kernel family, worker count {1, 2, 8} and shard size {64, 256, 1024}.
// threads = 1 runs the same phases inline on one buffer set, so that
// column doubles as a width-1 check; a team refused inside a pool task
// takes the same inline path.
//
// The hot-shard straggler cases are the schedule the pipeline has to
// survive: one stripe carries (almost) all the work, so its owner
// commits rounds long after every peer has raced ahead to the next
// throw -- maximum overlap, maximum reuse pressure on the parity
// buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/config.hpp"
#include "core/kernel/exec.hpp"
#include "core/kernel/pipeline.hpp"
#include "par/sharded_mixed.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_token_process.hpp"
#include "par/sharded_variants.hpp"
#include "support/draw_plane.hpp"
#include "support/serial.hpp"
#include "support/thread_pool.hpp"

namespace rbb::par {
namespace {

constexpr std::uint32_t kN = 4096;
constexpr std::uint64_t kSeed = 0x9a11edULL;
constexpr std::uint64_t kRounds = 48;

const ShardedOptions kGrid[] = {
    {.threads = 1, .shard_size = 64},   {.threads = 1, .shard_size = 256},
    {.threads = 1, .shard_size = 1024}, {.threads = 2, .shard_size = 64},
    {.threads = 2, .shard_size = 256},  {.threads = 2, .shard_size = 1024},
    {.threads = 8, .shard_size = 64},   {.threads = 8, .shard_size = 256},
    {.threads = 8, .shard_size = 1024},
};

LoadConfig start_config(InitialConfig kind = InitialConfig::kOnePerBin) {
  Rng rng(99);
  return make_config(kind, kN, kN, rng);
}

// --- load-only --------------------------------------------------------------

TEST(PipelinedParity, LoadStepLoopVsRunMatchesOracle) {
  SequentialCounterProcess oracle(start_config(), kSeed);
  RoundStats want{};
  for (std::uint64_t r = 0; r < kRounds; ++r) want = oracle.step();

  for (const ShardedOptions& options : kGrid) {
    ShardedRepeatedBallsProcess pipelined(start_config(), kSeed, options);
    const RoundStats got = pipelined.run(kRounds);
    EXPECT_EQ(got.max_load, want.max_load);
    EXPECT_EQ(got.empty_bins, want.empty_bins);
    EXPECT_EQ(got.departures, want.departures);
    EXPECT_EQ(pipelined.loads(), oracle.loads());
    EXPECT_EQ(pipelined.round(), kRounds);
    ASSERT_NO_THROW(pipelined.check_invariants());

    ShardedRepeatedBallsProcess stepped(start_config(), kSeed, options);
    for (std::uint64_t r = 0; r < kRounds; ++r) stepped.step();
    EXPECT_EQ(pipelined.loads(), stepped.loads());
  }
}

TEST(PipelinedParity, LoadRunThenStepContinuesTheSameTrajectory) {
  // A pipelined run must leave the kernel in a state from which a
  // step() loop continues the exact oracle trajectory (round counter,
  // scratch and scatter buffers all consistent).
  SequentialCounterProcess oracle(start_config(), kSeed);
  ShardedRepeatedBallsProcess sharded(start_config(), kSeed,
                                      {.threads = 2, .shard_size = 256});
  for (std::uint64_t r = 0; r < kRounds; ++r) oracle.step();
  sharded.run(kRounds / 2);
  for (std::uint64_t r = kRounds / 2; r < kRounds; ++r) sharded.step();
  EXPECT_EQ(sharded.loads(), oracle.loads());
  EXPECT_EQ(sharded.round(), kRounds);
}

TEST(PipelinedParity, LoadBackToBackRunsReuseBothBufferSets) {
  // Consecutive pipelined runs of odd length start each run on the
  // even-parity set with buffers from the previous run's final rounds
  // still sized; the trajectory must not care.
  SequentialCounterProcess oracle(start_config(), kSeed);
  ShardedRepeatedBallsProcess sharded(start_config(), kSeed,
                                      {.threads = 8, .shard_size = 64});
  for (std::uint64_t r = 0; r < 21; ++r) oracle.step();
  sharded.run(7);
  sharded.run(7);
  sharded.run(7);
  EXPECT_EQ(sharded.loads(), oracle.loads());
  EXPECT_EQ(sharded.round(), 21u);
}

// --- hot-shard stragglers ---------------------------------------------------

TEST(PipelinedParity, LoadSurvivesHotShardStraggler) {
  // All n balls in bin 0: stripe 0's owner throws and commits nearly
  // all the work while every peer spins ahead.
  SequentialCounterProcess oracle(start_config(InitialConfig::kAllInOne),
                                  kSeed);
  for (std::uint64_t r = 0; r < kRounds; ++r) oracle.step();

  for (const ShardedOptions& options :
       {ShardedOptions{.threads = 8, .shard_size = 64},
        ShardedOptions{.threads = 2, .shard_size = 1024}}) {
    ShardedRepeatedBallsProcess pipelined(
        start_config(InitialConfig::kAllInOne), kSeed, options);
    pipelined.run(kRounds);
    EXPECT_EQ(pipelined.loads(), oracle.loads());
    ASSERT_NO_THROW(pipelined.check_invariants());
  }
}

TEST(PipelinedParity, MixedSurvivesSkewedRateStraggler) {
  // stalled-tenth: 10% of bins release nothing, the rest drain fast --
  // the drop accounting is commit-order sensitive, so any buffer-reuse
  // bug shows up as a different bounce set.
  const MixedSpec spec = make_mixed_spec(1024, 8.0, "zipf", "stalled-tenth");
  SequentialCounterMixedProcess oracle(spec, kSeed);
  MixedRoundStats want{};
  for (std::uint64_t r = 0; r < kRounds; ++r) want = oracle.step();

  ShardedMixedProcess pipelined(spec, kSeed, {.threads = 8, .shard_size = 64});
  const MixedRoundStats got = pipelined.run(kRounds);
  EXPECT_EQ(got.max_load, want.max_load);
  EXPECT_EQ(got.drops, want.drops);
  EXPECT_EQ(got.total_weight, want.total_weight);
  EXPECT_EQ(pipelined.loads(), oracle.loads());
  EXPECT_EQ(pipelined.dropped_balls(), oracle.dropped_balls());
  ASSERT_NO_THROW(pipelined.check_invariants());
}

// --- refill variants (tetris, leaky) ----------------------------------------

TEST(PipelinedParity, TetrisRunMatchesOracle) {
  SequentialCounterTetrisProcess oracle(start_config(InitialConfig::kRandom),
                                        kSeed);
  TetrisRoundStats want{};
  for (std::uint64_t r = 0; r < kRounds; ++r) want = oracle.step();

  for (const ShardedOptions& options : kGrid) {
    ShardedTetrisProcess pipelined(start_config(InitialConfig::kRandom), kSeed,
                                   0, options);
    const TetrisRoundStats got = pipelined.run(kRounds);
    EXPECT_EQ(got.max_load, want.max_load);
    EXPECT_EQ(got.empty_bins, want.empty_bins);
    EXPECT_EQ(got.total_balls, want.total_balls);
    EXPECT_EQ(pipelined.loads(), oracle.loads());
    for (std::uint32_t u = 0; u < kN; ++u) {
      ASSERT_EQ(pipelined.first_empty_round(u), oracle.first_empty_round(u))
          << "bin " << u;
    }
    ASSERT_NO_THROW(pipelined.check_invariants());
  }
}

TEST(PipelinedParity, LeakyMatchesOracleIncludingArrivalDraws) {
  // Leaky bins draw a Binomial(n, lambda) arrival count per round; the
  // pipelined path hoists those draws ahead of the team, so the last
  // round's arrivals figure is the cross-check that the hoist hits the
  // same substream.
  constexpr double kLambda = 0.6;
  SequentialCounterLeakyBinsProcess oracle(start_config(), kLambda, kSeed);
  LeakyRoundStats want{};
  for (std::uint64_t r = 0; r < kRounds; ++r) want = oracle.step();

  for (const ShardedOptions& options :
       {ShardedOptions{.threads = 2, .shard_size = 256},
        ShardedOptions{.threads = 8, .shard_size = 64}}) {
    ShardedLeakyBinsProcess pipelined(start_config(), kLambda, kSeed, options);
    const LeakyRoundStats got = pipelined.run(kRounds);
    EXPECT_EQ(got.total_balls, want.total_balls);
    EXPECT_EQ(got.arrivals, want.arrivals);
    EXPECT_EQ(pipelined.loads(), oracle.loads());
    ASSERT_NO_THROW(pipelined.check_invariants());
  }
}

// --- choose-phase variants (d-choices, threshold) ---------------------------

TEST(PipelinedParity, DChoicesRunMatchesOracle) {
  constexpr std::uint32_t kD = 3;
  SequentialCounterDChoicesProcess oracle(start_config(), kD, kSeed);
  RoundStats want{};
  for (std::uint64_t r = 0; r < kRounds; ++r) want = oracle.step();

  for (const ShardedOptions& options : kGrid) {
    ShardedDChoicesProcess pipelined(start_config(), kD, kSeed, options);
    const RoundStats got = pipelined.run(kRounds);
    EXPECT_EQ(got.max_load, want.max_load);
    EXPECT_EQ(got.empty_bins, want.empty_bins);
    EXPECT_EQ(got.departures, want.departures);
    EXPECT_EQ(pipelined.loads(), oracle.loads());
    ASSERT_NO_THROW(pipelined.check_invariants());
  }
}

TEST(PipelinedParity, ThresholdMatchesOracle) {
  constexpr load_t kThreshold = 4;
  constexpr std::uint32_t kProbes = 2;
  SequentialCounterThresholdProcess oracle(start_config(), kThreshold, kProbes,
                                           kSeed);
  for (std::uint64_t r = 0; r < kRounds; ++r) oracle.step();

  ShardedThresholdProcess pipelined(start_config(), kThreshold, kProbes, kSeed,
                                    {.threads = 8, .shard_size = 256});
  pipelined.run(kRounds);
  EXPECT_EQ(pipelined.loads(), oracle.loads());
  ASSERT_NO_THROW(pipelined.check_invariants());
}

// --- token ------------------------------------------------------------------

TEST(PipelinedParity, TokenRunMatchesOracle) {
  SequentialCounterTokenProcess oracle(kN, identity_placement(kN), kSeed);
  for (std::uint64_t r = 0; r < kRounds; ++r) oracle.step();

  for (const ShardedOptions& options : kGrid) {
    ShardedTokenProcess pipelined(kN, identity_placement(kN), kSeed, options);
    pipelined.run(kRounds);
    EXPECT_EQ(pipelined.loads(), oracle.loads());
    for (std::uint32_t i = 0; i < kN; ++i) {
      ASSERT_EQ(pipelined.token_bin(i), oracle.token_bin(i)) << "token " << i;
      ASSERT_EQ(pipelined.progress(i), oracle.progress(i)) << "token " << i;
    }
    ASSERT_NO_THROW(pipelined.check_invariants());
  }
}

TEST(PipelinedParity, TokenHotQueueStraggler) {
  // Every token starts in bin 0: the front stripe drains one token per
  // round while peers overlap far ahead.
  SequentialCounterTokenProcess oracle(
      kN, std::vector<std::uint32_t>(kN, 0u), kSeed);
  for (std::uint64_t r = 0; r < kRounds; ++r) oracle.step();

  ShardedTokenProcess pipelined(kN, std::vector<std::uint32_t>(kN, 0u), kSeed,
                                {.threads = 8, .shard_size = 64});
  pipelined.run(kRounds);
  EXPECT_EQ(pipelined.loads(), oracle.loads());
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(pipelined.token_bin(i), oracle.token_bin(i)) << "token " << i;
  }
}

// --- mixed ------------------------------------------------------------------

TEST(PipelinedParity, MixedRunMatchesOracle) {
  const MixedSpec spec = make_mixed_spec(1024, 8.0, "zipf", "capped");
  SequentialCounterMixedProcess oracle(spec, kSeed);
  MixedRoundStats want{};
  for (std::uint64_t r = 0; r < kRounds; ++r) want = oracle.step();

  for (const ShardedOptions& options : kGrid) {
    ShardedMixedProcess pipelined(spec, kSeed, options);
    const MixedRoundStats got = pipelined.run(kRounds);
    EXPECT_EQ(got.max_load, want.max_load);
    EXPECT_EQ(got.empty_bins, want.empty_bins);
    EXPECT_EQ(got.departures, want.departures);
    EXPECT_EQ(got.drops, want.drops);
    EXPECT_EQ(got.max_weighted_load, want.max_weighted_load);
    EXPECT_EQ(got.total_balls, want.total_balls);
    EXPECT_EQ(got.total_weight, want.total_weight);
    EXPECT_EQ(pipelined.loads(), oracle.loads());
    EXPECT_EQ(pipelined.dropped_balls(), oracle.dropped_balls());
    EXPECT_EQ(pipelined.dropped_weight(), oracle.dropped_weight());
    ASSERT_NO_THROW(pipelined.check_invariants());
  }
}

// --- run(0) ------------------------------------------------------------------

template <typename Proc>
std::string snapshot_of(const Proc& proc) {
  serial::ByteWriter w;
  proc.snapshot(w);
  return w.take();
}

/// run(0) on a process that has already run: the round counter, the
/// complete state and the stats must all stay put.  `stats_of` maps the
/// process to the comparable stats tuple of its family.
template <typename Proc, typename StatsOf>
void expect_run_zero_is_a_no_op(Proc& proc, StatsOf stats_of) {
  proc.run(5);
  const std::uint64_t round = proc.round();
  const std::string state = snapshot_of(proc);
  const auto stats = stats_of(proc);
  proc.run(0);
  EXPECT_EQ(proc.round(), round);
  EXPECT_EQ(snapshot_of(proc), state);
  EXPECT_EQ(stats_of(proc), stats);
  ASSERT_NO_THROW(proc.check_invariants());
}

TEST(PipelinedParity, RunZeroLeavesEveryShardedFamilyUnchanged) {
  for (const ShardedOptions& options :
       {ShardedOptions{.threads = 1, .shard_size = 256},
        ShardedOptions{.threads = 8, .shard_size = 64}}) {
    const auto load_stats = [](auto& p) {
      return std::tuple(p.max_load(), p.empty_bins(), p.total_balls());
    };
    ShardedRepeatedBallsProcess load(start_config(), kSeed, options);
    expect_run_zero_is_a_no_op(load, load_stats);
    ShardedTetrisProcess tetris(start_config(InitialConfig::kRandom), kSeed, 0,
                                options);
    expect_run_zero_is_a_no_op(tetris, load_stats);
    ShardedLeakyBinsProcess leaky(start_config(), 0.6, kSeed, options);
    expect_run_zero_is_a_no_op(leaky, load_stats);
    ShardedDChoicesProcess dchoices(start_config(), 3, kSeed, options);
    expect_run_zero_is_a_no_op(dchoices, load_stats);
    ShardedThresholdProcess threshold(start_config(), 4, 2, kSeed, options);
    expect_run_zero_is_a_no_op(threshold, load_stats);
    ShardedTokenProcess token(kN, identity_placement(kN), kSeed, options);
    expect_run_zero_is_a_no_op(token, [](auto& p) {
      return std::tuple(p.max_load(), p.empty_bins(), p.min_progress());
    });
    ShardedMixedProcess mixed(make_mixed_spec(1024, 8.0, "zipf", "capped"),
                              kSeed, options);
    expect_run_zero_is_a_no_op(mixed, [](auto& p) {
      return std::tuple(p.max_load(), p.empty_bins(), p.total_balls(),
                        p.total_weight(), p.dropped_balls(),
                        p.max_weighted_load());
    });
  }
}

// --- refused team -------------------------------------------------------------

TEST(PipelinedParity, RefusedTeamInsidePoolTaskRunsInlineAndMatchesOracle) {
  // threads = 0 attaches the global pool, but inside another pool's task
  // without a NestedParallelismGrant the team is refused and the driver
  // runs the rounds inline on the task's thread.
  SequentialCounterProcess load_oracle(start_config(), kSeed);
  for (std::uint64_t r = 0; r < kRounds; ++r) load_oracle.step();
  SequentialCounterTokenProcess token_oracle(kN, identity_placement(kN),
                                             kSeed);
  for (std::uint64_t r = 0; r < kRounds; ++r) token_oracle.step();

  ThreadPool outer(2);
  outer.for_each(1, [&](std::uint64_t) {
    ASSERT_TRUE(ThreadPool::inside_task());
    ASSERT_FALSE(ThreadPool::nested_allowed(&ThreadPool::global()));

    ShardedRepeatedBallsProcess load(start_config(), kSeed,
                                     {.threads = 0, .shard_size = 256});
    load.run(kRounds);
    EXPECT_EQ(load.loads(), load_oracle.loads());
    EXPECT_EQ(load.round(), kRounds);
    ASSERT_NO_THROW(load.check_invariants());

    ShardedTokenProcess token(kN, identity_placement(kN), kSeed,
                              {.threads = 0, .shard_size = 256});
    token.run(kRounds);
    EXPECT_EQ(token.loads(), token_oracle.loads());
    for (std::uint32_t i = 0; i < kN; ++i) {
      ASSERT_EQ(token.token_bin(i), token_oracle.token_bin(i)) << "token " << i;
      ASSERT_EQ(token.progress(i), token_oracle.progress(i)) << "token " << i;
    }
    ASSERT_NO_THROW(token.check_invariants());
  });
}

// --- the driver contract -----------------------------------------------------

/// A synthetic arrival: (source stripe, round thrown, destination bin).
using Tagged = std::tuple<std::uint32_t, std::uint64_t, bin_index_t>;

/// Drives synthetic rounds in which every stripe throws one arrival into
/// every shard, and pins the commit side of the driver: each stripe
/// applies its owned shards in ascending order, each shard's buffers in
/// ascending source stripe, every buffer exactly once per round and from
/// that round; the scans tile [0, n) once per round; the buffers end
/// drained.
void expect_driver_contract(unsigned threads) {
  constexpr std::uint32_t kBins = 1000;
  constexpr std::uint64_t kContractRounds = 5;
  kernel::ShardedExecution exec(kBins, {.threads = threads, .shard_size = 64});
  const kernel::ShardPlan& plan = exec.plan();
  ASSERT_GT(plan.stripe_count(), 4u);
  kernel::ScatterBuffers<Tagged> buffers;
  // Per stripe, in call order: (round, arrival) per applied arrival and
  // (round, begin, end) per scanned shard.
  using Applied = std::tuple<std::uint64_t, Tagged>;
  using Scanned = std::tuple<std::uint64_t, bin_index_t, bin_index_t>;
  std::vector<std::vector<Applied>> applied(plan.stripe_count());
  std::vector<std::vector<Scanned>> scanned(plan.stripe_count());
  kernel::run_pipeline(
      exec, kContractRounds, buffers,
      [&](std::uint32_t g, std::uint64_t i, kernel::ShardRows<Tagged> rows) {
        for (std::uint32_t s = 0; s < plan.shard_count(); ++s) {
          rows.push(plan.shard_begin(s), Tagged{g, i, plan.shard_begin(s)});
        }
      },
      kernel::NoChoose{},
      [&](std::uint32_t g, std::uint64_t i, const std::vector<Tagged>& buf) {
        for (const Tagged& t : buf) applied[g].emplace_back(i, t);
      },
      [&](std::uint32_t g, std::uint64_t i, bin_index_t begin,
          bin_index_t end) { scanned[g].emplace_back(i, begin, end); });
  EXPECT_TRUE(buffers.drained());

  bin_index_t covered = 0;  // end of round 0's scans so far, stripe order
  for (std::uint32_t g = 0; g < plan.stripe_count(); ++g) {
    std::vector<Applied> want_applied;
    std::vector<Scanned> want_scanned;
    for (std::uint64_t i = 0; i < kContractRounds; ++i) {
      for (std::uint32_t s = plan.stripe_begin_shard(g);
           s < plan.stripe_end_shard(g); ++s) {
        for (std::uint32_t src = 0; src < plan.stripe_count(); ++src) {
          want_applied.emplace_back(i, Tagged{src, i, plan.shard_begin(s)});
        }
        want_scanned.emplace_back(i, plan.shard_begin(s), plan.shard_end(s));
      }
    }
    EXPECT_EQ(applied[g], want_applied) << "stripe " << g;
    EXPECT_EQ(scanned[g], want_scanned) << "stripe " << g;
    for (const auto& [i, begin, end] : scanned[g]) {
      if (i != 0) continue;
      EXPECT_EQ(begin, covered);
      covered = end;
    }
  }
  EXPECT_EQ(covered, kBins);
}

TEST(PipelineDriver, DrainsInCanonicalOrderAndScansEveryShardOnce) {
  expect_driver_contract(1);
  expect_driver_contract(4);
  ThreadPool outer(2);
  outer.for_each(1, [&](std::uint64_t) {
    ASSERT_FALSE(ThreadPool::nested_allowed(&ThreadPool::global()));
    expect_driver_contract(0);  // refused team: inline on the task thread
  });
}

/// LoadScan::add over `loads`, one bin at a time.
kernel::LoadScan add_each(const std::vector<load_t>& loads) {
  kernel::LoadScan scan;
  for (const load_t load : loads) scan.add(load);
  return scan;
}

/// LoadScan::add_range over `loads`, split at `cut` into two blocks.
kernel::LoadScan add_blocks(const std::vector<load_t>& loads,
                            std::size_t cut) {
  kernel::LoadScan scan;
  scan.add_range(loads.data(), cut);
  scan.add_range(loads.data() + cut, loads.size() - cut);
  return scan;
}

TEST(LoadScan, AddMatchesAddRangeOnRandomLoadsWithZeros) {
  Rng rng(41);
  for (const std::size_t n : {1u, 7u, 100u, 4097u}) {
    std::vector<load_t> loads(n);
    for (load_t& load : loads) {
      load = rng.bernoulli(0.4) ? 0 : static_cast<load_t>(rng.index(50));
    }
    const kernel::LoadScan each = add_each(loads);
    EXPECT_EQ(each.max, *std::max_element(loads.begin(), loads.end()));
    EXPECT_EQ(each.zeros, static_cast<std::uint32_t>(
                              std::count(loads.begin(), loads.end(), 0u)));
    for (const std::size_t cut : {std::size_t{0}, n / 3, n}) {
      const kernel::LoadScan range = add_blocks(loads, cut);
      EXPECT_EQ(range.max, each.max) << "n = " << n << ", cut " << cut;
      EXPECT_EQ(range.zeros, each.zeros) << "n = " << n << ", cut " << cut;
    }
  }
}

TEST(LoadScan, AddFindsTheMaxAtEitherEnd) {
  for (const bool first : {true, false}) {
    std::vector<load_t> loads = {0, 3, 0, 5, 2, 0, 4};
    (first ? loads.front() : loads.back()) = 9;
    const kernel::LoadScan each = add_each(loads);
    const kernel::LoadScan range = add_blocks(loads, 0);
    EXPECT_EQ(each.max, 9u);
    EXPECT_EQ(range.max, 9u);
    EXPECT_EQ(each.zeros, first ? 2u : 3u);
    EXPECT_EQ(range.zeros, each.zeros);
  }
  EXPECT_EQ(add_each({0, 0, 0}).max, 0u);
  EXPECT_EQ(add_each({0, 0, 0}).zeros, 3u);
}

/// add_range on a scan already holding `seed`, under a pinned ISA.
kernel::LoadScan add_range_on(PlaneIsa isa, const kernel::LoadScan& seed,
                              const std::vector<load_t>& loads) {
  force_plane_isa(isa);
  kernel::LoadScan scan = seed;
  scan.add_range(loads.data(), loads.size());
  reset_plane_isa();
  return scan;
}

// The AVX2 body (unsigned 8-lane max, four accumulators, a scalar tail)
// against the portable reductions and add(): every length 0..67 covers
// each tail of the 32- and 8-load steps; loads at and above 2^31 would
// order wrongly under a signed max; all-zero arrays leave the max at
// the seed's.  On a machine without AVX2 only the portable path runs.
TEST(LoadScan, VectorMatchesPortable) {
  std::vector<PlaneIsa> isas = {PlaneIsa::kPortable};
  if (plane_isa_supported(PlaneIsa::kAvx2)) isas.push_back(PlaneIsa::kAvx2);
  Rng rng(43);
  const kernel::LoadScan seeds[] = {{}, {.max = 6, .zeros = 11}};
  for (std::size_t len = 0; len <= 67; ++len) {
    for (int shape = 0; shape < 3; ++shape) {
      std::vector<load_t> loads(len, 0);
      for (load_t& load : loads) {
        if (shape == 1 && !rng.bernoulli(0.3)) {
          load = static_cast<load_t>(rng.index(40));
        } else if (shape == 2 && !rng.bernoulli(0.3)) {
          load = rng.bernoulli(0.5)
                     ? load_t{0x80000000u} |
                           static_cast<load_t>(rng.index(1u << 31))
                     : static_cast<load_t>(rng.index(1u << 31));
        }
      }
      for (const kernel::LoadScan& seed : seeds) {
        kernel::LoadScan want = seed;
        for (const load_t load : loads) want.add(load);
        for (const PlaneIsa isa : isas) {
          const kernel::LoadScan got = add_range_on(isa, seed, loads);
          EXPECT_EQ(got.max, want.max)
              << "isa " << static_cast<int>(isa) << ", length " << len
              << ", shape " << shape;
          EXPECT_EQ(got.zeros, want.zeros)
              << "isa " << static_cast<int>(isa) << ", length " << len
              << ", shape " << shape;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rbb::par

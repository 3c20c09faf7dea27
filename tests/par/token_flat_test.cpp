// Flat-storage parity suite: the implicit-FIFO token core
// (core/kernel/token_store.hpp) against a retained naive reference
// (token_reference.hpp), across QueuePolicy {FIFO, LIFO, random} x
// backends {seq xoshiro, seq-counter, sharded 1/2/8 workers x shard
// sizes {64, 256, 1024}} -- including cover-time visit tracking,
// mid-run reassign() rebuilds, the check_invariants / snapshot
// inspection hooks, and on the seq-xoshiro core general-graph walks and
// delay histograms.  This is the contract that the flat storage makes
// exactly the moves the transparent per-bin-vector semantics define.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernel/token_kernel.hpp"
#include "core/token_process.hpp"
#include "engine/engine.hpp"
#include "graph/graph.hpp"
#include "par/sharded_token_process.hpp"
#include "support/serial.hpp"
#include "token_reference.hpp"

namespace rbb::par {
namespace {

using kernel::SequentialTokenProcess;
using kernel::TokenOptions;
using testing::ReferenceTokenProcess;

constexpr std::uint32_t kN = 512;
constexpr std::uint64_t kSeed = 0xfeedfaceULL;
constexpr std::uint64_t kRounds = 32;

const QueuePolicy kPolicies[] = {QueuePolicy::kFifo, QueuePolicy::kLifo,
                                 QueuePolicy::kRandom};

/// Skewed start: four tokens per occupied bin, so every policy has
/// real intra-bin ordering decisions from round one.
std::vector<std::uint32_t> skewed_placement(std::uint32_t n) {
  std::vector<std::uint32_t> placement(n);
  for (std::uint32_t i = 0; i < n; ++i) placement[i] = i % (n / 4);
  return placement;
}

/// Asserts full observable state equality: token positions, progress,
/// and every queue's content in arrival order.
template <typename Core, typename Ref>
void expect_same_state(const Core& core, const Ref& ref,
                       const char* what) {
  ASSERT_EQ(core.round(), ref.round()) << what;
  for (std::uint32_t i = 0; i < core.token_count(); ++i) {
    ASSERT_EQ(core.token_bin(i), ref.token_bin(i))
        << what << " token " << i << " round " << core.round();
    ASSERT_EQ(core.progress(i), ref.progress(i))
        << what << " token " << i << " round " << core.round();
  }
  for (std::uint32_t u = 0; u < core.bin_count(); ++u) {
    ASSERT_EQ(core.queue_snapshot(u), ref.queue(u))
        << what << " bin " << u << " round " << core.round();
  }
}

TEST(FlatTokenParity, SeqXoshiroMatchesReferenceEveryPolicy) {
  // The complete graph, then neighbor destinations (cycle: degree 2,
  // torus: degree 4) drawn in the same slot of the draw order as the
  // clique's uniform bin.
  const Graph cycle = make_cycle(kN);
  const Graph torus = make_torus(16, kN / 16);
  for (const Graph* graph : {static_cast<const Graph*>(nullptr), &cycle,
                             &torus}) {
    for (const QueuePolicy policy : kPolicies) {
      const TokenOptions options{
          .track_visits = true, .policy = policy, .graph = graph};
      SequentialTokenProcess core(kN, skewed_placement(kN), Rng(kSeed),
                                  options);
      ReferenceTokenProcess<kernel::SequentialStream> ref(
          kN, skewed_placement(kN), kernel::SequentialStream(Rng(kSeed)),
          options);
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        core.step();
        ref.step();
        expect_same_state(core, ref, to_string(policy));
      }
      for (std::uint32_t i = 0; i < kN; ++i) {
        ASSERT_EQ(core.visited_count(i), ref.visited_count(i));
      }
      ASSERT_NO_THROW(core.check_invariants());
    }
  }
}

TEST(FlatTokenParity, SeqCounterMatchesReferenceEveryPolicy) {
  for (const QueuePolicy policy : kPolicies) {
    const TokenOptions options{.track_visits = false, .policy = policy};
    SequentialCounterTokenProcess core(kN, skewed_placement(kN), kSeed,
                                       options);
    ReferenceTokenProcess<kernel::CounterStream> ref(
        kN, skewed_placement(kN), kernel::CounterStream(kSeed), options);
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      core.step();
      ref.step();
      expect_same_state(core, ref, to_string(policy));
    }
    ASSERT_NO_THROW(core.check_invariants());
  }
}

/// Steps `core` and `ref` in lockstep for kRounds rounds, comparing the
/// full state after each round, then the visit and delay bookkeeping
/// that `options` enables.
template <typename Core, typename Ref>
void expect_lockstep(Core& core, Ref& ref, const TokenOptions& options,
                     const std::string& what) {
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    core.step();
    ref.step();
    expect_same_state(core, ref, what.c_str());
  }
  for (std::uint32_t i = 0; options.track_visits && i < core.token_count();
       ++i) {
    ASSERT_EQ(core.visited_count(i), ref.visited_count(i)) << what;
    ASSERT_EQ(core.cover_round(i), ref.cover_round(i)) << what;
  }
  if (options.track_delays) {
    EXPECT_EQ(core.delay_histogram().counts(),
              ref.delay_histogram().counts())
        << what;
  }
  ASSERT_NO_THROW(core.check_invariants()) << what;
}

/// The sequential round's parity grid, run on the seq-xoshiro core and
/// (delays off: a xoshiro-only feature) the seq-counter core.
void expect_seq_grid(std::uint32_t n, const std::vector<std::uint32_t>& start,
                     bool visits, const std::string& what) {
  for (const QueuePolicy policy : kPolicies) {
    for (const bool delays : {false, true}) {
      const TokenOptions options{.track_visits = visits,
                                 .policy = policy,
                                 .track_delays = delays};
      const std::string label = what + " " + to_string(policy) +
                                (visits ? " visits" : "") +
                                (delays ? " delays" : "");
      SequentialTokenProcess core(n, start, Rng(kSeed), options);
      ReferenceTokenProcess<kernel::SequentialStream> ref(
          n, start, kernel::SequentialStream(Rng(kSeed)), options);
      expect_lockstep(core, ref, options, "seq " + label);
      if (delays) continue;
      SequentialCounterTokenProcess counter(n, start, kSeed, options);
      ReferenceTokenProcess<kernel::CounterStream> counter_ref(
          n, start, kernel::CounterStream(kSeed), options);
      expect_lockstep(counter, counter_ref, options, "seq-counter " + label);
    }
  }
}

TEST(FlatTokenParity, SeqCoresMatchReferenceAcrossLoadGrid) {
  // m in {n/4, n, 4n} tokens, spread round-robin, plus every token in one
  // bin; visit tracking off and on.
  constexpr std::uint32_t n = 256;
  std::vector<std::vector<std::uint32_t>> starts;
  for (const std::uint32_t m : {n / 4, n, 4 * n}) {
    std::vector<std::uint32_t> start(m);
    for (std::uint32_t i = 0; i < m; ++i) start[i] = (i * 7) % n;
    starts.push_back(start);
  }
  starts.emplace_back(n, 5u);  // all in one bin
  for (const std::vector<std::uint32_t>& start : starts) {
    for (const bool visits : {false, true}) {
      expect_seq_grid(n, start, visits, "m=" + std::to_string(start.size()));
    }
  }
}

TEST(FlatTokenParity, ShardedMatchesReferenceAcrossGrid) {
  for (const QueuePolicy policy : kPolicies) {
    const TokenOptions options{.track_visits = false, .policy = policy};
    ReferenceTokenProcess<kernel::CounterStream> ref(
        kN, skewed_placement(kN), kernel::CounterStream(kSeed), options);
    ref.run(kRounds);
    for (const unsigned threads : {1u, 2u, 8u}) {
      for (const std::uint32_t shard : {64u, 256u, 1024u}) {
        ShardedTokenProcess core(kN, skewed_placement(kN), kSeed,
                                 ShardedOptions{threads, shard}, options);
        core.run(kRounds);
        expect_same_state(core, ref, to_string(policy));
        ASSERT_NO_THROW(core.check_invariants());
      }
    }
    // Stripes of 400, 400 and 200 bins at n = 1000: longer than
    // kDrawChunk and not a multiple of it, so a release block ends part
    // way through at each stripe end.
    constexpr std::uint32_t kOddN = 1000;
    static_assert(400 > kernel::kDrawChunk && 400 % kernel::kDrawChunk != 0);
    ReferenceTokenProcess<kernel::CounterStream> odd_ref(
        kOddN, skewed_placement(kOddN), kernel::CounterStream(kSeed), options);
    odd_ref.run(kRounds);
    ShardedTokenProcess odd(kOddN, skewed_placement(kOddN), kSeed,
                            ShardedOptions{2, 400}, options);
    odd.run(kRounds);
    expect_same_state(odd, odd_ref, to_string(policy));
    ASSERT_NO_THROW(odd.check_invariants());
  }
}

TEST(FlatTokenParity, ReassignMidRunMatchesReference) {
  for (const QueuePolicy policy : kPolicies) {
    const TokenOptions options{.track_visits = true, .policy = policy};
    ShardedTokenProcess core(kN, skewed_placement(kN), kSeed,
                             ShardedOptions{2, 128}, options);
    ReferenceTokenProcess<kernel::CounterStream> ref(
        kN, skewed_placement(kN), kernel::CounterStream(kSeed), options);
    core.run(10);
    ref.run(10);
    const std::vector<std::uint32_t> pile(kN, 3u);  // adversarial pile-up
    core.reassign(pile);
    ref.reassign(pile);
    for (std::uint64_t r = 0; r < 12; ++r) {
      core.step();
      ref.step();
      expect_same_state(core, ref, to_string(policy));
    }
    for (std::uint32_t i = 0; i < kN; ++i) {
      ASSERT_EQ(core.visited_count(i), ref.visited_count(i)) << "token "
                                                             << i;
    }
    ASSERT_NO_THROW(core.check_invariants());
  }
}

TEST(FlatTokenParity, CoverTimeMatchesReferenceEveryPolicy) {
  constexpr std::uint32_t kSmall = 48;
  std::vector<std::uint32_t> placement(kSmall);
  for (std::uint32_t i = 0; i < kSmall; ++i) placement[i] = i;
  const std::uint64_t cap = 64ull * kSmall * kSmall;
  for (const QueuePolicy policy : kPolicies) {
    const TokenOptions options{.track_visits = true, .policy = policy};
    ShardedTokenProcess core(kSmall, placement, kSeed,
                             ShardedOptions{2, 64}, options);
    ReferenceTokenProcess<kernel::CounterStream> ref(
        kSmall, placement, kernel::CounterStream(kSeed), options);
    const auto core_cover = core.run_until_covered(cap);
    const auto ref_cover = ref.run_until_covered(cap);
    ASSERT_TRUE(core_cover.has_value()) << to_string(policy);
    ASSERT_TRUE(ref_cover.has_value()) << to_string(policy);
    EXPECT_EQ(*core_cover, *ref_cover) << to_string(policy);
    for (std::uint32_t i = 0; i < kSmall; ++i) {
      ASSERT_EQ(core.visited_count(i), ref.visited_count(i));
      ASSERT_EQ(core.cover_round(i), ref.cover_round(i));
    }
  }
}

TEST(FlatTokenParity, DelayHistogramMatchesReferenceEveryPolicy) {
  // Per-release waiting times, across a mid-run adversarial pile-up
  // that restarts every arrival clock.
  for (const QueuePolicy policy : kPolicies) {
    const TokenOptions options{.policy = policy, .track_delays = true};
    SequentialTokenProcess core(kN, skewed_placement(kN), Rng(kSeed),
                                options);
    ReferenceTokenProcess<kernel::SequentialStream> ref(
        kN, skewed_placement(kN), kernel::SequentialStream(Rng(kSeed)),
        options);
    core.run(kRounds);
    ref.run(kRounds);
    const std::vector<std::uint32_t> pile(kN, 3u);
    core.reassign(pile);
    ref.reassign(pile);
    core.run(kRounds);
    ref.run(kRounds);
    expect_same_state(core, ref, to_string(policy));
    EXPECT_EQ(core.delay_histogram().counts(),
              ref.delay_histogram().counts())
        << to_string(policy);
    if (policy == QueuePolicy::kFifo) {
      // Bin 3 drains the pile in order: its last release waited the
      // whole second run.
      EXPECT_GE(core.delay_histogram().max_value(), kRounds - 1);
    }
  }
}

TEST(FlatTokenParity, SnapshotOrderIsArrivalOrderEveryPolicy) {
  // All tokens in bin 0: the initial snapshot must read 0..m-1 (arrival
  // = token-id order) for every policy orientation, including the
  // LIFO-oriented list, which stores newest-first internally.
  for (const QueuePolicy policy : kPolicies) {
    SequentialCounterTokenProcess proc(
        kN, std::vector<std::uint32_t>(kN, 0u), kSeed,
        TokenOptions{.track_visits = false, .policy = policy});
    const std::vector<std::uint32_t> snap = proc.queue_snapshot(0);
    ASSERT_EQ(snap.size(), kN) << to_string(policy);
    for (std::uint32_t i = 0; i < kN; ++i) {
      ASSERT_EQ(snap[i], i) << to_string(policy);
    }
    // One round: FIFO releases token 0, LIFO token kN-1.
    proc.step();
    if (policy == QueuePolicy::kFifo) {
      EXPECT_EQ(proc.progress(0), 1u);
      EXPECT_EQ(proc.queue_snapshot(0).front(), 1u);
    } else if (policy == QueuePolicy::kLifo) {
      EXPECT_EQ(proc.progress(kN - 1), 1u);
    }
    ASSERT_NO_THROW(proc.check_invariants());
  }
}

TEST(FlatTokenParity, PrefetchingStoreMatchesReference) {
  // A store past the core's 2 MiB cache constant (2^17 tokens and bins:
  // 3.7 MB) takes the head- and tail-prefetching pop and push loops,
  // which the small grids above never reach.
  constexpr std::uint32_t n = 1u << 17;
  constexpr std::uint64_t kBigRounds = 3;
  const std::vector<std::uint32_t> start = skewed_placement(n);
  for (const QueuePolicy policy : kPolicies) {
    const TokenOptions options{.track_visits = false, .policy = policy};
    const std::string name = to_string(policy);
    SequentialTokenProcess seq(n, start, Rng(kSeed), options);
    ReferenceTokenProcess<kernel::SequentialStream> seq_ref(
        n, start, kernel::SequentialStream(Rng(kSeed)), options);
    seq.run(kBigRounds);
    seq_ref.run(kBigRounds);
    expect_same_state(seq, seq_ref, ("seq " + name).c_str());
    ASSERT_NO_THROW(seq.check_invariants());

    ReferenceTokenProcess<kernel::CounterStream> ref(
        n, start, kernel::CounterStream(kSeed), options);
    ref.run(kBigRounds);
    SequentialCounterTokenProcess counter(n, start, kSeed, options);
    counter.run(kBigRounds);
    expect_same_state(counter, ref, ("seq-counter " + name).c_str());
    ShardedTokenProcess sharded(n, start, kSeed, ShardedOptions{2, 0},
                                options);
    sharded.run(kBigRounds);
    expect_same_state(sharded, ref, ("sharded " + name).c_str());
    ASSERT_NO_THROW(sharded.check_invariants());
  }
}

/// Sum of every token's progress.
template <typename Core>
std::uint64_t total_progress(const Core& core) {
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < core.token_count(); ++i) {
    sum += core.progress(i);
  }
  return sum;
}

/// Runs `rounds` rounds one at a time; each must add exactly the
/// round's releases -- its non-empty bins -- to the progress total,
/// which `expected` carries across calls.
template <typename Core>
void expect_rounds_count_releases(Core& core, std::uint64_t rounds,
                                  std::uint64_t& expected,
                                  const std::string& what) {
  for (std::uint64_t r = 0; r < rounds; ++r) {
    expected += core.bin_count() - core.empty_bins();
    core.step();
    ASSERT_EQ(total_progress(core), expected)
        << what << " round " << core.round();
  }
}

TEST(FlatTokenParity, ProgressCountsEveryRelease) {
  // Progress lives in the token's slot: pops count it, pushes and the
  // reassign rebuild must leave it alone, and a snapshot must carry it
  // into the restored instance.
  const std::vector<std::uint32_t> pile(kN, 5u);
  constexpr std::uint64_t kLeg = 6;
  for (const QueuePolicy policy : kPolicies) {
    const TokenOptions options{.track_visits = false, .policy = policy};
    const std::string name = to_string(policy);
    // Runs a leg, reassigns every token onto one bin, runs another leg;
    // returns the progress total.
    const auto legs = [&](auto& core, const std::string& what) {
      std::uint64_t expected = 0;
      expect_rounds_count_releases(core, kLeg, expected, what);
      core.reassign(pile);
      EXPECT_EQ(total_progress(core), expected) << what << " reassign";
      expect_rounds_count_releases(core, kLeg, expected, what);
      return expected;
    };
    // Snapshots `core` into a fresh `restored` and runs a further leg on
    // it from the restored total.
    const auto restore_leg = [&](const auto& core, auto& restored,
                                 std::uint64_t expected,
                                 const std::string& what) {
      serial::ByteWriter w;
      core.snapshot(w);
      serial::ByteReader r(w.str());
      restored.restore(r);
      ASSERT_EQ(total_progress(restored), expected) << what << " restore";
      for (std::uint32_t i = 0; i < kN; ++i) {
        ASSERT_EQ(restored.progress(i), core.progress(i)) << what << " " << i;
      }
      expect_rounds_count_releases(restored, kLeg, expected, what);
    };

    SequentialTokenProcess seq(kN, skewed_placement(kN), Rng(kSeed, 0),
                               options);
    legs(seq, name + " seq");

    SequentialCounterTokenProcess counter(kN, skewed_placement(kN), kSeed,
                                          options);
    const std::uint64_t counted = legs(counter, name + " seq-counter");
    SequentialCounterTokenProcess counter_back(kN, skewed_placement(kN),
                                               kSeed, options);
    restore_leg(counter, counter_back, counted, name + " seq-counter");

    for (const unsigned threads : {1u, 2u}) {
      const std::string what =
          name + " sharded x" + std::to_string(threads);
      ShardedTokenProcess sharded(kN, skewed_placement(kN), kSeed,
                                  ShardedOptions{threads, 128}, options);
      const std::uint64_t total = legs(sharded, what);
      EXPECT_EQ(total, counted) << what;
      ShardedTokenProcess back(kN, skewed_placement(kN), kSeed,
                               ShardedOptions{threads, 128}, options);
      restore_leg(sharded, back, total, what);
    }
  }
}

TEST(FlatTokenParity, RejectsBadConstructionAndReassign) {
  const TokenOptions options{.track_visits = false,
                             .policy = QueuePolicy::kRandom};
  EXPECT_THROW(SequentialTokenProcess(0, {0u}, Rng(1), options),
               std::invalid_argument);
  EXPECT_THROW(SequentialTokenProcess(8, {}, Rng(1), options),
               std::invalid_argument);
  EXPECT_THROW(SequentialTokenProcess(8, {8u}, Rng(1), options),
               std::invalid_argument);
  SequentialTokenProcess proc(8, {1u, 1u, 2u}, Rng(1), options);
  EXPECT_THROW(proc.reassign({0u}), std::invalid_argument);
  EXPECT_THROW(proc.reassign({0u, 1u, 8u}), std::invalid_argument);
}

TEST(FlatTokenParity, CounterStreamCoresRejectGraphsAndDelays) {
  // General graphs and delay histograms are sequential-stream features:
  // both counter-stream instantiations refuse them at construction, so
  // snapshot()/restore() and the sharded stripes never see them.
  const Graph cycle = make_cycle(8);
  const std::vector<std::uint32_t> placement{0u, 1u, 2u, 3u};
  for (const TokenOptions& options :
       {TokenOptions{.graph = &cycle}, TokenOptions{.track_delays = true}}) {
    EXPECT_THROW(SequentialCounterTokenProcess(8, placement, kSeed, options),
                 std::invalid_argument);
    EXPECT_THROW(ShardedTokenProcess(8, placement, kSeed,
                                     ShardedOptions{2, 4}, options),
                 std::invalid_argument);
  }
}

static_assert(SimProcess<kernel::SequentialTokenProcess>,
              "the flat sequential token kernel must satisfy the engine "
              "concept");

TEST(FlatTokenParity, EngineDrivesTheSeqKernel) {
  Engine engine(SequentialTokenProcess(
      kN, skewed_placement(kN), Rng(kSeed),
      TokenOptions{.track_visits = false, .policy = QueuePolicy::kRandom}));
  MinEmptyFraction memp;
  const EngineResult r = engine.run_rounds(8, memp);
  EXPECT_EQ(r.rounds, 8u);
  EXPECT_GT(memp.min_fraction, 0.0);
  EXPECT_EQ(engine.process().round(), 8u);
}

}  // namespace
}  // namespace rbb::par

// Parity of the count-split arrival cores across leaves (DESIGN.md
// Sect. 5, core/kernel/count_split.hpp).
//
// The other parity suites run at n <= 4096, inside ONE 2^14-bin leaf,
// where the split tree is a single leaf.  Here n spans three leaves,
// the last one partial, so the binomial tree splits for real; the
// shard sizes include the default (every leaf inside one shard) and
// 1008 (shards that cut leaves, and stripe boundaries inside a leaf).
// For load-only, Tetris and leaky the sharded core must equal its
// sequential counter-stream sibling bit for bit -- the full snapshot,
// so loads, round, ball total, last departures/arrivals and Tetris
// first-empty rounds -- at 1/2/8 workers, for single steps and for
// pipelined multi-round run() calls.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/kernel/count_split.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_variants.hpp"
#include "support/serial.hpp"

namespace rbb::par {
namespace {

constexpr std::uint32_t kN = 2 * kernel::kLeafBins + 5000;
constexpr std::uint64_t kSeed = 0x5b117ULL;
constexpr std::uint64_t kRounds = 12;
constexpr std::uint64_t kChunk = 4;  // rounds per run() call

static_assert(kRounds % kChunk == 0);

LoadConfig start_config() {
  Rng rng(7);
  return make_config(InitialConfig::kRandom, kN, kN, rng);
}

template <typename Proc>
std::string snapshot_of(const Proc& proc) {
  serial::ByteWriter w;
  proc.snapshot(w);
  return w.take();
}

/// Snapshots after every kChunk-th round, run `per_call` rounds per
/// run() call, with the invariants checked after each call.
template <typename Proc>
std::vector<std::string> record(Proc& proc, std::uint64_t per_call) {
  std::vector<std::string> out;
  for (std::uint64_t r = 0; r < kRounds; r += kChunk) {
    for (std::uint64_t done = 0; done < kChunk; done += per_call) {
      proc.run(per_call);
      proc.check_invariants();
    }
    out.push_back(snapshot_of(proc));
  }
  return out;
}

struct Layout {
  unsigned threads;
  std::uint32_t shard_size;
};

constexpr Layout kLayouts[] = {{1, 0},   {2, 0},    {8, 0},    {2, 64},
                               {8, 256}, {2, 1024}, {1, 1008}, {8, 1008}};

template <typename MakeRef, typename MakeSharded>
void ExpectParity(MakeRef make_ref, MakeSharded make_sharded) {
  auto reference = make_ref();
  const std::vector<std::string> want = record(reference, 1);
  for (const Layout& layout : kLayouts) {
    for (const std::uint64_t per_call : {std::uint64_t{1}, kChunk}) {
      auto sharded = make_sharded(
          ShardedOptions{.threads = layout.threads,
                         .shard_size = layout.shard_size});
      EXPECT_EQ(record(sharded, per_call), want)
          << "threads " << layout.threads << ", shard size "
          << layout.shard_size << ", " << per_call << " round(s) per run()";
    }
  }
}

TEST(CountSplitParity, LoadOnlyAcrossLeaves) {
  ExpectParity(
      [] { return SequentialCounterProcess(start_config(), kSeed); },
      [](ShardedOptions o) {
        return ShardedRepeatedBallsProcess(start_config(), kSeed, o);
      });
}

TEST(CountSplitParity, TetrisAcrossLeaves) {
  ExpectParity(
      [] { return SequentialCounterTetrisProcess(start_config(), kSeed); },
      [](ShardedOptions o) {
        return ShardedTetrisProcess(start_config(), kSeed, 0, o);
      });
}

TEST(CountSplitParity, LeakyAcrossLeaves) {
  ExpectParity(
      [] {
        return SequentialCounterLeakyBinsProcess(start_config(), 0.9, kSeed);
      },
      [](ShardedOptions o) {
        return ShardedLeakyBinsProcess(start_config(), 0.9, kSeed, o);
      });
}

// --- folded departures across state replacement ---------------------------

// The sharded throw publishes k_g from the stripe's previous round-end
// zeros and the commit departs; the zeros of a state that no round
// produced -- a restore, a reassign -- come from recompute_stats().
// n = 40000 at shard size 4096 puts four shards (four stripes) in a
// leaf, at 32768 two leaves in a shard (one cursor step covers both),
// and at 1024 -- 40 shards over 32 stripes -- a stripe of two shards
// inside one leaf, where the departure cursor runs ahead of the shard
// being filled.  After every run() the sharded state must equal the
// sequential counter oracle.

constexpr std::uint32_t kFoldN = 40000;

LoadConfig fold_config(std::uint64_t seed) {
  Rng rng(seed);
  return make_config(InitialConfig::kRandom, kFoldN, kFoldN, rng);
}

template <typename Sharded, typename Oracle>
void run_both(Sharded& sharded, Oracle& oracle, const std::string& where) {
  for (const std::uint64_t rounds : {1, 3}) {
    sharded.run(rounds);
    oracle.run(rounds);
    sharded.check_invariants();
    EXPECT_EQ(snapshot_of(sharded), snapshot_of(oracle))
        << where << ", after round " << oracle.round();
  }
}

template <typename Proc>
void restore_from(Proc& proc, const std::string& bytes) {
  serial::ByteReader r(bytes);
  proc.restore(r);
}

/// Per shard size: run, restore the sharded state into a fresh
/// instance, run; then run, replace(sharded, oracle), run.
template <typename MakeRef, typename MakeSharded, typename Replace>
void ExpectFoldedParity(MakeRef make_ref, MakeSharded make_sharded,
                        Replace replace) {
  for (const std::uint32_t shard_size : {4096u, 32768u, 1024u}) {
    const ShardedOptions options{.threads = 2, .shard_size = shard_size};
    const std::string at = "shard size " + std::to_string(shard_size);
    {
      auto oracle = make_ref();
      auto sharded = make_sharded(options);
      run_both(sharded, oracle, at + ", before the snapshot");
      auto restored = make_sharded(options);
      restore_from(restored, snapshot_of(sharded));
      restored.check_invariants();
      run_both(restored, oracle, at + ", restored");
    }
    {
      auto oracle = make_ref();
      auto sharded = make_sharded(options);
      run_both(sharded, oracle, at + ", before the replacement");
      replace(sharded, oracle);
      sharded.check_invariants();
      EXPECT_EQ(snapshot_of(sharded), snapshot_of(oracle)) << at;
      run_both(sharded, oracle, at + ", replaced");
    }
  }
}

/// The refill variants conserve no balls and have no reassign(): their
/// state is replaced by a restore into the running instance, of a
/// state from another start.
template <typename MakeRef>
auto restore_other_state(MakeRef make_other) {
  return [make_other](auto& sharded, auto& oracle) {
    auto other = make_other();
    other.run(5);
    const std::string bytes = snapshot_of(other);
    restore_from(sharded, bytes);
    restore_from(oracle, bytes);
  };
}

TEST(CountSplitParity, FoldedDeparturesSurviveRestoreAndReassign) {
  ExpectFoldedParity(
      [] { return SequentialCounterProcess(fold_config(7), kSeed); },
      [](ShardedOptions o) {
        return ShardedRepeatedBallsProcess(fold_config(7), kSeed, o);
      },
      [](auto& sharded, auto& oracle) {
        const LoadConfig q = fold_config(8);
        sharded.reassign(q);
        oracle.reassign(q);
      });
  ExpectFoldedParity(
      [] { return SequentialCounterTetrisProcess(fold_config(7), kSeed); },
      [](ShardedOptions o) {
        return ShardedTetrisProcess(fold_config(7), kSeed, 0, o);
      },
      restore_other_state([] {
        return SequentialCounterTetrisProcess(fold_config(8), kSeed);
      }));
  ExpectFoldedParity(
      [] {
        return SequentialCounterLeakyBinsProcess(fold_config(7), 0.9, kSeed);
      },
      [](ShardedOptions o) {
        return ShardedLeakyBinsProcess(fold_config(7), 0.9, kSeed, o);
      },
      restore_other_state([] {
        return SequentialCounterLeakyBinsProcess(fold_config(8), 0.9, kSeed);
      }));
}

// --- resident state ---------------------------------------------------------

// The count-split cores move no ball, so after a pipelined multi-round
// run they hold no scatter buffer: the load vector (4 B/bin), Tetris's
// first-empty rounds (8 B/bin), and O(1) per stripe.
constexpr std::size_t kPerStripeBytes = 16 * 64;

TEST(CountSplitState, LoadCoreHoldsFourBytesPerBin) {
  ShardedRepeatedBallsProcess proc(start_config(), kSeed, {.threads = 4});
  proc.run(16);
  EXPECT_LE(proc.resident_state_bytes(),
            4 * std::size_t{kN} +
                proc.plan().stripe_count() * kPerStripeBytes);
}

TEST(CountSplitState, RefillCoresHoldNoScatterBuffers) {
  ShardedLeakyBinsProcess leaky(start_config(), 0.9, kSeed, {.threads = 4});
  leaky.run(16);
  EXPECT_LE(leaky.resident_state_bytes(),
            4 * std::size_t{kN} +
                leaky.plan().stripe_count() * kPerStripeBytes);
  ShardedTetrisProcess tetris(start_config(), kSeed, 0, {.threads = 4});
  tetris.run(16);
  EXPECT_LE(tetris.resident_state_bytes(),
            12 * std::size_t{kN} +
                tetris.plan().stripe_count() * kPerStripeBytes);
}

}  // namespace
}  // namespace rbb::par

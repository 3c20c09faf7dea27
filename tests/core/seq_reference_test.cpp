// Pins the per-ball ball cores against the naive textbook rounds of
// seq_reference.hpp, every round and bit for bit: the load vector, the
// round statistics, total_balls() and the Tetris first-empty rounds.
// Covered: load-only on the complete graph and a ring, Tetris ball by
// ball, leaky bins, d-choices and threshold (online on the xoshiro
// stream; batch-snapshot on the counter stream, sequential and
// sharded), at n in {2, 17, 4097} (the ring needs n >= 3) from the
// one-per-bin, all-in-one and random starts.
#include "seq_reference.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/repeated_dchoices.hpp"
#include "baselines/threshold.hpp"
#include "core/process.hpp"
#include "par/sharded_variants.hpp"
#include "tetris/leaky.hpp"
#include "tetris/tetris.hpp"

namespace rbb {
namespace {

using testing::ReferenceBallProcess;
using testing::RefCore;
using testing::RefRound;
using testing::RefRule;

constexpr std::uint32_t kBins[] = {2, 17, 4097};
constexpr InitialConfig kStarts[] = {InitialConfig::kOnePerBin,
                                     InitialConfig::kAllInOne,
                                     InitialConfig::kRandom};

std::uint64_t rounds_for(std::uint32_t n) { return n > 1000 ? 150 : 400; }

LoadConfig start(InitialConfig kind, std::uint32_t n) {
  Rng rng(1000 + n);
  return make_config(kind, n, n, rng);
}

std::string label(InitialConfig kind, std::uint32_t n) {
  return "start " + std::to_string(static_cast<int>(kind)) + ", n = " +
         std::to_string(n);
}

/// Steps `core` and `ref` side by side; returns on the first mismatch so
/// a broken kernel reports one round, not thousands.
template <typename Core>
void expect_tracks(Core& core, ReferenceBallProcess& ref,
                   std::uint64_t rounds, const std::string& where) {
  const auto n = core.bin_count();
  for (std::uint64_t t = 0; t < rounds; ++t) {
    const auto got = core.step();
    const RefRound want = ref.step();
    const std::string at = where + ", round " + std::to_string(t);
    ASSERT_EQ(got.max_load, want.max_load) << at;
    ASSERT_EQ(got.empty_bins, want.empty_bins) << at;
    if constexpr (requires { got.departures; }) {
      ASSERT_EQ(got.departures, want.departures) << at;
    }
    if constexpr (requires { got.total_balls; }) {
      ASSERT_EQ(got.total_balls, want.total_balls) << at;
    }
    if constexpr (requires { got.arrivals; }) {
      ASSERT_EQ(got.arrivals, want.arrivals) << at;
    }
    ASSERT_EQ(core.total_balls(), want.total_balls) << at;
    ASSERT_EQ(core.loads(), ref.loads()) << at;
    if constexpr (requires { core.first_empty_round(0); }) {
      for (std::uint32_t u = 0; u < n; ++u) {
        ASSERT_EQ(core.first_empty_round(u), ref.first_empty_round(u))
            << at << ", bin " << u;
      }
    }
  }
  core.check_invariants();
}

/// Runs `make(q, rng)` against the reference over every (n, start).
template <typename Make>
void check_all(const RefRule& rule, Make make) {
  for (const std::uint32_t n : kBins) {
    for (const InitialConfig kind : kStarts) {
      const LoadConfig q = start(kind, n);
      const Rng rng(7, n);
      auto core = make(q, rng);
      ReferenceBallProcess ref(q, rng, rule);
      expect_tracks(core, ref, rounds_for(n), label(kind, n));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(SeqReference, LoadOnlyCompleteGraph) {
  check_all({.core = RefCore::kLoad}, [](const LoadConfig& q, Rng rng) {
    return RepeatedBallsProcess(q, rng);
  });
}

TEST(SeqReference, LoadOnlyRing) {
  for (const std::uint32_t n : {3u, 17u, 4097u}) {
    const Graph ring = make_cycle(n);
    for (const InitialConfig kind : kStarts) {
      const LoadConfig q = start(kind, n);
      const Rng rng(8, n);
      RepeatedBallsProcess core(q, &ring, rng);
      ReferenceBallProcess ref(q, rng,
                               {.core = RefCore::kLoad, .graph = &ring});
      expect_tracks(core, ref, rounds_for(n), label(kind, n));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SeqReference, TetrisBallByBall) {
  check_all({.core = RefCore::kTetris}, [](const LoadConfig& q, Rng rng) {
    return TetrisProcess(q, rng);
  });
}

TEST(SeqReference, TetrisBallByBallAboveCriticalRate) {
  // More fresh balls than bins: loads grow, bins rarely empty.
  for (const std::uint32_t n : kBins) {
    const LoadConfig q = start(InitialConfig::kRandom, n);
    const Rng rng(9, n);
    TetrisProcess core(q, rng, 2 * n);
    ReferenceBallProcess ref(q, rng,
                             {.core = RefCore::kTetris, .arrivals = 2 * n});
    expect_tracks(core, ref, 50, label(InitialConfig::kRandom, n));
    if (HasFatalFailure()) return;
  }
}

TEST(SeqReference, LeakyBins) {
  for (const double lambda : {0.5, 1.0}) {
    check_all({.core = RefCore::kLeaky, .lambda = lambda},
              [lambda](const LoadConfig& q, Rng rng) {
                return LeakyBinsProcess(q, lambda, rng);
              });
    if (HasFatalFailure()) return;
  }
}

TEST(SeqReference, DChoicesOnline) {
  for (const std::uint32_t d : {1u, 2u, 3u}) {
    check_all({.core = RefCore::kDChoices, .d = d},
              [d](const LoadConfig& q, Rng rng) {
                return RepeatedDChoicesProcess(q, d, rng);
              });
    if (HasFatalFailure()) return;
  }
}

TEST(SeqReference, ThresholdOnline) {
  check_all({.core = RefCore::kThreshold, .threshold = 1, .probes = 3},
            [](const LoadConfig& q, Rng rng) {
              return ThresholdProcess(q, 1, 3, rng);
            });
}

// The counter-stream choose cores bank their releasers by branch-free
// compaction, sequentially and per sharded stripe; both must realize
// the batch-snapshot round of the reference.
constexpr std::uint64_t kCounterSeed = 0x5eed;
constexpr par::ShardedOptions kStriped{.threads = 2, .shard_size = 256};

TEST(SeqReference, DChoicesBatchSnapshot) {
  const RefRule rule{.core = RefCore::kDChoices, .d = 2, .counter = true,
                     .counter_seed = kCounterSeed};
  check_all(rule, [](const LoadConfig& q, Rng) {
    return par::SequentialCounterDChoicesProcess(q, 2, kCounterSeed);
  });
  if (HasFatalFailure()) return;
  check_all(rule, [](const LoadConfig& q, Rng) {
    return par::ShardedDChoicesProcess(q, 2, kCounterSeed, kStriped);
  });
}

TEST(SeqReference, ThresholdBatchSnapshot) {
  const RefRule rule{.core = RefCore::kThreshold, .threshold = 1,
                     .probes = 3, .counter = true,
                     .counter_seed = kCounterSeed};
  check_all(rule, [](const LoadConfig& q, Rng) {
    return par::SequentialCounterThresholdProcess(q, 1, 3, kCounterSeed);
  });
  if (HasFatalFailure()) return;
  check_all(rule, [](const LoadConfig& q, Rng) {
    return par::ShardedThresholdProcess(q, 1, 3, kCounterSeed, kStriped);
  });
}

}  // namespace
}  // namespace rbb

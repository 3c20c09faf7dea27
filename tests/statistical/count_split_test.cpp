// Statistical oracle for the count-split arrivals of the load-only,
// Tetris and leaky counter cores (core/kernel/count_split.hpp).
//
// The split draws arrival COUNTS down a binomial tree over 2^14-bin
// leaves instead of one destination per ball, so it equals the per-ball
// kernels in law only.  Pinned here, at fixed seeds:
//   * exactness -- the tree's leaf counts sum to k (k = 0, 1, n), and a
//     walk over any leaf sub-range yields the full walk's counts there;
//   * one round's arrival vector is uniform over the bins (chi-square),
//     at n a multiple and a non-multiple of the leaf size, through the
//     sharded kernel itself;
//   * the eight packed offsets a full leaf takes from one Philox block
//     are pairwise independent across neighbouring lanes (chi-square of
//     a joint histogram);
//   * the window max load of the count-split counter core and of the
//     per-ball xoshiro kernel have the same distribution (two-sample
//     KS), for load-only and for Tetris.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/kernel/count_split.hpp"
#include "core/process.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_variants.hpp"
#include "stat_oracle.hpp"
#include "tetris/tetris.hpp"

namespace rbb {
namespace {

using kernel::kLeafBins;
using kernel::LeafSplit;
using testing::chi_square;
using testing::chi_square_bound;
using testing::ks_two_sample;
using testing::ks_two_sample_bound;

/// Every leaf's count of one round's split, by a walk over [first, last).
std::vector<ball_count_t> leaf_counts(const LeafSplit& split,
                                      const kernel::CounterStream& stream,
                                      std::uint64_t round, ball_count_t k,
                                      std::uint32_t first,
                                      std::uint32_t last) {
  std::vector<ball_count_t> counts;
  LeafSplit::Walk walk(split, stream, round, k, first, last);
  std::uint32_t leaf = 0;
  ball_count_t count = 0;
  while (walk.next(leaf, count)) {
    EXPECT_EQ(leaf, first + counts.size()) << "leaves out of order";
    counts.push_back(count);
  }
  EXPECT_EQ(counts.size(), last - first);
  return counts;
}

TEST(CountSplit, LeafCountsSumToTheRoundTotalExactly) {
  const kernel::CounterStream stream(0xc0ffeeULL);
  for (const std::uint32_t n :
       {1u, kLeafBins, 5 * kLeafBins + 777, 37 * kLeafBins}) {
    const LeafSplit split(n);
    for (const ball_count_t k : {ball_count_t{0}, ball_count_t{1},
                                 static_cast<ball_count_t>(n)}) {
      for (std::uint64_t round = 0; round < 8; ++round) {
        const std::vector<ball_count_t> counts =
            leaf_counts(split, stream, round, k, 0, split.leaf_count());
        ball_count_t sum = 0;
        ball_count_t drawn = 0;
        for (std::uint32_t leaf = 0; leaf < counts.size(); ++leaf) {
          sum += counts[leaf];
          split.draw_leaf(stream, round, leaf, counts[leaf],
                          [&](bin_index_t base, const bin_index_t* offsets,
                              std::uint32_t len) {
                            for (std::uint32_t i = 0; i < len; ++i) {
                              ASSERT_LT(base + offsets[i],
                                        split.leaf_end(leaf));
                            }
                            drawn += len;
                          });
        }
        EXPECT_EQ(sum, k) << "n " << n << ", round " << round;
        EXPECT_EQ(drawn, k) << "n " << n << ", round " << round;
      }
    }
  }
}

TEST(CountSplit, SubRangeWalksAgreeWithTheFullWalk) {
  // A commit owner walks only the paths to its own leaves; the counts it
  // sees must be the full walk's, whatever the range.
  const kernel::CounterStream stream(0xabcULL);
  const LeafSplit split(21 * kLeafBins + 5);
  const std::uint32_t leaves = split.leaf_count();
  const ball_count_t k = 15 * kLeafBins;
  const std::vector<ball_count_t> full =
      leaf_counts(split, stream, 3, k, 0, leaves);
  for (std::uint32_t first = 0; first < leaves; first += 3) {
    for (std::uint32_t last = first + 1; last <= leaves; last += 4) {
      const std::vector<ball_count_t> part =
          leaf_counts(split, stream, 3, k, first, last);
      EXPECT_EQ(part, std::vector<ball_count_t>(full.begin() + first,
                                                full.begin() + last))
          << "[" << first << ", " << last << ")";
    }
  }
}

/// One sharded round from a configuration with `per_bin` balls in every
/// bin: all n bins release, so the arrival vector is the end loads minus
/// (per_bin - 1).  Chi-square over cells of 64 bins (the last one
/// possibly short) against their exact share of the bins.
void ExpectUniformArrivals(std::uint32_t n, std::uint64_t seed) {
  constexpr std::uint32_t kPerBin = 4;
  constexpr std::uint32_t kCell = 64;
  par::ShardedRepeatedBallsProcess proc(LoadConfig(n, kPerBin), seed,
                                        {.threads = 2, .shard_size = 0});
  proc.step();
  const std::uint32_t cells = (n + kCell - 1) / kCell;
  std::vector<std::uint64_t> observed(cells, 0);
  std::vector<double> expected(cells, 0.0);
  for (std::uint32_t u = 0; u < n; ++u) {
    observed[u / kCell] += proc.loads()[u] - (kPerBin - 1);
    expected[u / kCell] += 1.0 / n;
  }
  EXPECT_LT(chi_square(observed, expected), chi_square_bound(cells - 1))
      << "n " << n;
}

TEST(CountSplit, OneRoundArrivalsAreUniformAtALeafMultiple) {
  ExpectUniformArrivals(4 * kLeafBins, 0x11ULL);
}

TEST(CountSplit, OneRoundArrivalsAreUniformAtANonMultiple) {
  // Three full leaves and a 1234-bin tail leaf: the tree's binomial
  // weights must follow bins, not leaves.
  ExpectUniformArrivals(3 * kLeafBins + 1234, 0x22ULL);
}

TEST(CountSplit, PackedLanesOfOneBlockAreIndependent) {
  // A full leaf's arrivals 8b .. 8b + 7 are the eight 16-bit lanes of one
  // block.  Lanes j, j + 1 share a 32-bit word for even j and straddle
  // two words for odd j; the top 3 bits of each pair's offsets must be
  // jointly uniform over the 64 cells.
  constexpr std::uint32_t kBlocks = 8192;
  const kernel::CounterStream stream(0x33ULL);
  const LeafSplit split(4 * kLeafBins);
  std::vector<bin_index_t> offsets;
  split.draw_leaf(stream, 5, 2, 8 * kBlocks,
                  [&](bin_index_t, const bin_index_t* chunk,
                      std::uint32_t len) {
                    offsets.insert(offsets.end(), chunk, chunk + len);
                  });
  ASSERT_EQ(offsets.size(), 8 * kBlocks);
  constexpr unsigned kShift = kernel::kLeafBits - 3;
  for (std::uint32_t j = 0; j + 1 < 8; ++j) {
    std::vector<std::uint64_t> joint(64, 0);
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      ++joint[(offsets[8 * b + j] >> kShift) * 8 +
              (offsets[8 * b + j + 1] >> kShift)];
    }
    EXPECT_LT(testing::chi_square_uniform(joint), chi_square_bound(63))
        << "lanes " << j << ", " << j + 1;
  }
}

// --- equivalence in law with the per-ball xoshiro kernels --------------------

// Two leaves, the second one partial, so the split tree is exercised.
constexpr std::uint32_t kN = kLeafBins + 3000;
constexpr std::uint64_t kBurnIn = 24;
constexpr std::uint64_t kWindow = 40;
constexpr std::uint32_t kTrials = 48;

/// Max over rounds (kBurnIn, kBurnIn + kWindow] of the max load.
template <typename Proc>
double window_max(Proc& proc) {
  for (std::uint64_t r = 0; r < kBurnIn; ++r) proc.step();
  std::uint32_t worst = 0;
  for (std::uint64_t r = 0; r < kWindow; ++r) {
    worst = std::max(worst, proc.step().max_load);
  }
  return worst;
}

LoadConfig random_start(std::uint32_t trial) {
  Rng rng(1000 + trial);
  return make_config(InitialConfig::kRandom, kN, kN, rng);
}

TEST(CountSplit, LoadWindowMaxMatchesThePerBallKernelInLaw) {
  std::vector<double> split;
  std::vector<double> per_ball;
  for (std::uint32_t t = 0; t < kTrials; ++t) {
    par::SequentialCounterProcess a(random_start(t), 0x51000 + t);
    RepeatedBallsProcess b(random_start(t), Rng(0x52000 + t));
    split.push_back(window_max(a));
    per_ball.push_back(window_max(b));
  }
  EXPECT_LT(ks_two_sample(split, per_ball),
            ks_two_sample_bound(kTrials, kTrials));
}

TEST(CountSplit, TetrisWindowMaxMatchesThePerBallKernelInLaw) {
  std::vector<double> split;
  std::vector<double> per_ball;
  for (std::uint32_t t = 0; t < kTrials; ++t) {
    par::SequentialCounterTetrisProcess a(random_start(t), 0x53000 + t);
    TetrisProcess b(random_start(t), Rng(0x54000 + t));
    split.push_back(window_max(a));
    per_ball.push_back(window_max(b));
  }
  EXPECT_LT(ks_two_sample(split, per_ball),
            ks_two_sample_bound(kTrials, kTrials));
}

}  // namespace
}  // namespace rbb

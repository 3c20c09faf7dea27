// Tests for the sequential token core: queue policies, token
// conservation, visit/cover tracking, progress accounting, reassignment,
// general-graph walks and per-release delay histograms.
#include "core/token_process.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "core/kernel/token_kernel.hpp"
#include "graph/graph.hpp"

namespace rbb {
namespace {

using kernel::SequentialTokenProcess;
using kernel::TokenOptions;

std::vector<std::uint32_t> one_per_bin(std::uint32_t n) {
  std::vector<std::uint32_t> pos(n);
  std::iota(pos.begin(), pos.end(), 0u);
  return pos;
}

constexpr TokenOptions kVisits{.track_visits = true};
constexpr TokenOptions kDelays{.track_delays = true};

TEST(QueuePolicyNames, RoundTrip) {
  for (const auto p :
       {QueuePolicy::kFifo, QueuePolicy::kLifo, QueuePolicy::kRandom}) {
    EXPECT_EQ(queue_policy_from_string(to_string(p)), p);
  }
  EXPECT_THROW((void)queue_policy_from_string("??"), std::invalid_argument);
}

TEST(SequentialTokenProcess, RejectsBadConstruction) {
  EXPECT_THROW(SequentialTokenProcess(0, {0}, Rng(1)), std::invalid_argument);
  EXPECT_THROW(SequentialTokenProcess(4, {}, Rng(1)), std::invalid_argument);
  EXPECT_THROW(SequentialTokenProcess(4, {4}, Rng(1)), std::invalid_argument);
  const Graph cycle = make_cycle(8);
  EXPECT_THROW(SequentialTokenProcess(4, one_per_bin(4), Rng(1),
                                      TokenOptions{.graph = &cycle}),
               std::invalid_argument);  // graph size != bins
  const Graph isolated(4, {{0, 1}, {1, 2}});  // node 3 has no edge
  EXPECT_THROW(SequentialTokenProcess(4, one_per_bin(4), Rng(1),
                                      TokenOptions{.graph = &isolated}),
               std::invalid_argument);
}

TEST(SequentialTokenProcess, InitialPlacementCountsAsVisit) {
  SequentialTokenProcess proc(4, {0, 1, 2, 3}, Rng(1), kVisits);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(proc.visited_count(i), 1u);
    EXPECT_EQ(proc.token_bin(i), i);
    EXPECT_EQ(proc.progress(i), 0u);
  }
  EXPECT_FALSE(proc.all_covered());
}

TEST(SequentialTokenProcess, TokensConservedAcrossRounds) {
  SequentialTokenProcess proc(16, one_per_bin(16), Rng(2));
  for (int t = 0; t < 200; ++t) {
    proc.step();
    proc.check_invariants();
  }
  std::uint32_t total = 0;
  for (std::uint32_t u = 0; u < 16; ++u) total += proc.load(u);
  EXPECT_EQ(total, 16u);
}

TEST(SequentialTokenProcess, ProgressSumsToDepartures) {
  // Total progress after T rounds = sum over rounds of #non-empty bins;
  // every round moves at least 1 and at most n tokens.
  SequentialTokenProcess proc(8, one_per_bin(8), Rng(3));
  proc.run(50);
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < 8; ++i) total += proc.progress(i);
  EXPECT_GE(total, 50u);
  EXPECT_LE(total, 50u * 8u);
}

TEST(SequentialTokenProcess, SingleTokenWalksEveryRound) {
  SequentialTokenProcess proc(8, {3}, Rng(4));
  proc.run(100);
  EXPECT_EQ(proc.progress(0), 100u);
  EXPECT_EQ(proc.min_progress(), 100u);
}

TEST(SequentialTokenProcess, CoverageDetectedOnCompleteGraph) {
  // n = 4, plenty of rounds: every token covers all bins quickly.
  SequentialTokenProcess proc(4, one_per_bin(4), Rng(5), kVisits);
  const auto cover = proc.run_until_covered(10000);
  ASSERT_TRUE(cover.has_value());
  EXPECT_TRUE(proc.all_covered());
  EXPECT_EQ(proc.global_cover_time(), *cover);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(proc.visited_count(i), 4u);
    EXPECT_LE(proc.cover_round(i), *cover);
  }
}

TEST(SequentialTokenProcess, RunUntilCoveredRespectsCap) {
  SequentialTokenProcess proc(64, one_per_bin(64), Rng(6), kVisits);
  EXPECT_FALSE(proc.run_until_covered(2).has_value());
  EXPECT_EQ(proc.round(), 2u);
}

TEST(SequentialTokenProcess, VisitTrackingDisabledThrows) {
  SequentialTokenProcess proc(4, one_per_bin(4), Rng(7));
  proc.run(10);  // progress still works
  EXPECT_GT(proc.progress(0), 0u);
  EXPECT_THROW((void)proc.visited_count(0), std::logic_error);
  EXPECT_THROW((void)proc.run_until_covered(10), std::logic_error);
}

TEST(SequentialTokenProcess, ReassignMovesEveryToken) {
  SequentialTokenProcess proc(8, one_per_bin(8), Rng(8));
  proc.run(5);
  proc.reassign(std::vector<std::uint32_t>(8, 3));
  EXPECT_EQ(proc.load(3), 8u);
  EXPECT_EQ(proc.max_load(), 8u);
  EXPECT_EQ(proc.empty_bins(), 7u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(proc.token_bin(i), 3u);
  proc.check_invariants();
}

TEST(SequentialTokenProcess, ReassignValidation) {
  SequentialTokenProcess proc(4, one_per_bin(4), Rng(9));
  EXPECT_THROW(proc.reassign({0, 1}), std::invalid_argument);
  EXPECT_THROW(proc.reassign({0, 1, 2, 9}), std::invalid_argument);
}

TEST(SequentialTokenProcess, GraphModeKeepsTokensOnEdges) {
  const Graph g = make_cycle(8);
  SequentialTokenProcess proc(8, one_per_bin(8), Rng(10),
                              TokenOptions{.graph = &g});
  for (int t = 0; t < 50; ++t) {
    std::vector<std::uint32_t> before(8);
    for (std::uint32_t i = 0; i < 8; ++i) before[i] = proc.token_bin(i);
    proc.step();
    for (std::uint32_t i = 0; i < 8; ++i) {
      const std::uint32_t now = proc.token_bin(i);
      if (now != before[i]) {
        ASSERT_TRUE(g.has_edge(before[i], now))
            << "token " << i << " jumped " << before[i] << "->" << now;
      }
    }
  }
}

TEST(SequentialTokenProcess, FifoReleasesOldestToken) {
  // Two tokens in one bin: FIFO releases the lower id first (queue order
  // is id order at construction).
  SequentialTokenProcess proc(2, {0, 0}, Rng(11));
  proc.step();
  EXPECT_EQ(proc.progress(0), 1u);
  EXPECT_EQ(proc.progress(1), 0u);
}

TEST(SequentialTokenProcess, LifoReleasesNewestToken) {
  SequentialTokenProcess proc(2, {0, 0}, Rng(12),
                              TokenOptions{.policy = QueuePolicy::kLifo});
  proc.step();
  EXPECT_EQ(proc.progress(0), 0u);
  EXPECT_EQ(proc.progress(1), 1u);
}

TEST(SequentialTokenDelays, DisabledByDefault) {
  SequentialTokenProcess proc(4, one_per_bin(4), Rng(20));
  EXPECT_THROW((void)proc.delay_histogram(), std::logic_error);
}

TEST(SequentialTokenDelays, LoneTokenNeverWaits) {
  SequentialTokenProcess proc(16, {3}, Rng(21), kDelays);
  proc.run(50);
  const Histogram& delays = proc.delay_histogram();
  EXPECT_EQ(delays.total(), 50u);     // one release per round
  EXPECT_EQ(delays.max_value(), 0u);  // never queued behind anyone
}

TEST(SequentialTokenDelays, FifoPileDelaysAreExact) {
  // n tokens piled in bin 0, FIFO: bin 0 releases token r in round r
  // after exactly r rounds of waiting.  Every other release in round r
  // is of a token that arrived at round >= 1, so it waited < r: the
  // maximum recorded delay after round r is exactly r.
  constexpr std::uint32_t n = 16;
  SequentialTokenProcess proc(n, std::vector<std::uint32_t>(n, 0), Rng(22),
                              kDelays);
  for (std::uint32_t r = 0; r < n; ++r) {
    proc.step();
    EXPECT_EQ(proc.delay_histogram().max_value(), r) << "round " << r;
    EXPECT_EQ(proc.progress(r), 1u) << "token " << r;
  }
  for (std::uint32_t d = 0; d < n; ++d) {
    EXPECT_GE(proc.delay_histogram().count_at(d), 1u) << "delay " << d;
  }
}

TEST(SequentialTokenDelays, LifoBuriesTheOldest) {
  // LIFO on a pile: the newest token leaves immediately every round while
  // the bottom token starves -- max delay far above FIFO's.
  constexpr std::uint32_t n = 16;
  SequentialTokenProcess proc(
      n, std::vector<std::uint32_t>(n, 0), Rng(23),
      TokenOptions{.policy = QueuePolicy::kLifo, .track_delays = true});
  proc.run(10 * n);
  EXPECT_GE(proc.delay_histogram().max_value(), n - 1);
}

TEST(SequentialTokenDelays, ReassignResetsArrivalClock) {
  SequentialTokenProcess proc(8, one_per_bin(8), Rng(24), kDelays);
  proc.run(100);
  const std::uint64_t before = proc.delay_histogram().total();
  proc.reassign(std::vector<std::uint32_t>(8, 0));
  // After the pile-up at round 100, FIFO drains it in order: the k-th
  // release of bin 0 waited exactly k rounds, never 100+.
  proc.run(8);
  EXPECT_EQ(proc.delay_histogram().max_value(), 7u);
  EXPECT_GT(proc.delay_histogram().total(), before);
}

// Property sweep: across policies and sizes, tokens are conserved, loads
// match queue contents, and total progress equals the departure count.
class TokenSweep
    : public ::testing::TestWithParam<std::tuple<QueuePolicy, std::uint32_t>> {
};

TEST_P(TokenSweep, InvariantsHoldOverWindow) {
  const auto [policy, n] = GetParam();
  SequentialTokenProcess proc(
      n, one_per_bin(n), Rng(13 + n),
      TokenOptions{.track_visits = true, .policy = policy});
  for (std::uint32_t t = 0; t < 10 * n; ++t) proc.step();
  proc.check_invariants();
  std::uint32_t total = 0;
  for (std::uint32_t u = 0; u < n; ++u) total += proc.load(u);
  EXPECT_EQ(total, n);
  EXPECT_GT(proc.min_progress(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSizes, TokenSweep,
    ::testing::Combine(::testing::Values(QueuePolicy::kFifo,
                                         QueuePolicy::kLifo,
                                         QueuePolicy::kRandom),
                       ::testing::Values(8u, 64u, 256u)));

}  // namespace
}  // namespace rbb

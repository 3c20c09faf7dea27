// Tests for the multi-token traversal protocol (Sect. 4) including the
// adversarial variant (Sect. 4.1).
#include "traversal/traversal.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "support/bounds.hpp"

namespace rbb {
namespace {

TEST(TokenPlacement, FamiliesCoverExpectedShapes) {
  Rng rng(1);
  const auto one = make_token_placement(InitialConfig::kOnePerBin, 8, 8, rng);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(one[i], i);

  const auto all = make_token_placement(InitialConfig::kAllInOne, 8, 8, rng);
  for (const auto p : all) EXPECT_EQ(p, 0u);

  const auto half = make_token_placement(InitialConfig::kHalfLoaded, 8, 8, rng);
  for (const auto p : half) EXPECT_LT(p, 4u);

  const auto geo = make_token_placement(InitialConfig::kGeometric, 8, 8, rng);
  EXPECT_EQ(geo.size(), 8u);
  EXPECT_EQ(std::count(geo.begin(), geo.end(), 0u), 4);

  const auto rnd = make_token_placement(InitialConfig::kRandom, 8, 8, rng);
  for (const auto p : rnd) EXPECT_LT(p, 8u);
}

TEST(Traversal, SmallCliqueCovers) {
  TraversalParams params;
  params.n = 16;
  const TraversalResult r = run_traversal(params, 42);
  ASSERT_TRUE(r.cover_time.has_value());
  EXPECT_GT(*r.cover_time, 0u);
  EXPECT_LE(r.first_token_covered, r.last_token_covered);
  EXPECT_EQ(*r.cover_time, r.last_token_covered);
  EXPECT_GE(r.min_progress, 1u);
  EXPECT_GE(r.max_load_seen, 1u);
}

TEST(Traversal, DeterministicForSeed) {
  TraversalParams params;
  params.n = 32;
  const TraversalResult a = run_traversal(params, 7);
  const TraversalResult b = run_traversal(params, 7);
  ASSERT_TRUE(a.cover_time.has_value());
  ASSERT_TRUE(b.cover_time.has_value());
  EXPECT_EQ(*a.cover_time, *b.cover_time);
  EXPECT_EQ(a.min_progress, b.min_progress);
}

TEST(Traversal, CapReported) {
  TraversalParams params;
  params.n = 64;
  params.max_rounds = 3;  // far too few to cover
  const TraversalResult r = run_traversal(params, 1);
  EXPECT_FALSE(r.cover_time.has_value());
  EXPECT_EQ(r.rounds_run, 3u);
}

TEST(Traversal, CoverTimeScalesLikeNLog2N) {
  // Corollary 1 at test scale: cover/(n log2^2 n) lands in a band around
  // a modest constant (measured ~0.2-0.9 for n in the hundreds).
  TraversalParams params;
  params.n = 256;
  double sum = 0.0;
  constexpr int kTrials = 5;
  for (int i = 0; i < kTrials; ++i) {
    const TraversalResult r =
        run_traversal(params, static_cast<std::uint64_t>(100 + i));
    ASSERT_TRUE(r.cover_time.has_value());
    sum += static_cast<double>(*r.cover_time);
  }
  const double normalized = sum / kTrials / parallel_cover_scale(params.n);
  EXPECT_GT(normalized, 0.05);
  EXPECT_LT(normalized, 3.0);
}

TEST(Traversal, AdversarialFaultsStillCover) {
  // Faults every 8n rounds (gamma > 6 as Sect. 4.1 requires): traversal
  // must still complete, with bounded inflation.
  TraversalParams clean;
  clean.n = 128;
  const TraversalResult base = run_traversal(clean, 11);
  ASSERT_TRUE(base.cover_time.has_value());

  TraversalParams faulty = clean;
  faulty.fault_period = 8ull * faulty.n;
  faulty.fault_strategy = FaultStrategy::kAllToOne;
  const TraversalResult r = run_traversal(faulty, 11);
  ASSERT_TRUE(r.cover_time.has_value());
  // Constant-factor slowdown: generous 10x envelope at this scale.
  EXPECT_LT(static_cast<double>(*r.cover_time),
            10.0 * static_cast<double>(*base.cover_time) +
                10.0 * static_cast<double>(faulty.n));
}

TEST(Traversal, TelemetryCountsEveryInjectedFault) {
  // One fault after every fault_period-th round: floor(rounds / period)
  // of them, each counted where it happens (zero in a no-op build).
  TraversalParams params;
  params.n = 32;
  params.fault_period = 5;
  params.fault_strategy = FaultStrategy::kRandom;
  obs::set_enabled(false);
  obs::reset();
  obs::set_enabled(true);
  const TraversalResult r = run_traversal(params, 13);
  obs::set_enabled(false);
  const std::uint64_t faults =
      obs::scrape().counter(obs::Counter::kFaultsInjected);
  obs::reset();
  ASSERT_GE(r.rounds_run, params.fault_period);
#if RBB_TELEMETRY
  EXPECT_EQ(faults, r.rounds_run / params.fault_period);
#else
  EXPECT_EQ(faults, 0u);
#endif
}

TEST(Traversal, AllPoliciesCover) {
  for (const auto policy :
       {QueuePolicy::kFifo, QueuePolicy::kLifo, QueuePolicy::kRandom}) {
    TraversalParams params;
    params.n = 32;
    params.policy = policy;
    const TraversalResult r = run_traversal(params, 3);
    EXPECT_TRUE(r.cover_time.has_value()) << to_string(policy);
  }
}

TEST(Traversal, WorksOnGraphs) {
  Rng rng(5);
  const Graph g = make_hypercube(5);  // 32 nodes
  TraversalParams params;
  params.n = 32;
  params.graph = &g;
  params.max_rounds = 500000;
  const TraversalResult r = run_traversal(params, 9);
  ASSERT_TRUE(r.cover_time.has_value());
  EXPECT_GT(*r.cover_time, 32u);
}

TEST(Traversal, AdversarialPlacementStillCovers) {
  TraversalParams params;
  params.n = 64;
  params.placement = InitialConfig::kAllInOne;
  const TraversalResult r = run_traversal(params, 21);
  ASSERT_TRUE(r.cover_time.has_value());
  // The pile takes ~n rounds to drain before walks mix.
  EXPECT_GE(*r.cover_time, params.n / 2);
}

TEST(Traversal, RejectsTinyN) {
  TraversalParams params;
  params.n = 1;
  EXPECT_THROW((void)run_traversal(params, 1), std::invalid_argument);
}

}  // namespace
}  // namespace rbb

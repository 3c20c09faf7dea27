// The TrialPlan decides every Monte-Carlo trial's kernel: under a plan
// of one trial worker x two process threads, each backend-capable driver
// must really shard its rounds across a two-thread team (the pipeline
// records epoch waits), and -- because a sharded trajectory is
// bit-identical for every thread count -- return exactly the result of
// the legacy plan, whose inline rounds run on one thread per trial.
#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/experiments.hpp"
#include "obs/metrics.hpp"

namespace rbb {
namespace {

#if RBB_TELEMETRY
constexpr std::uint32_t kN = 32768;  // two default shards
constexpr std::uint64_t kRounds = 3;
constexpr std::uint32_t kTrials = 2;
constexpr TrialPlan kLegacy{.backend = Backend::kSharded};
constexpr TrialPlan kTeam{
    .trial_workers = 1, .process_threads = 2, .backend = Backend::kSharded};

/// Runs `run(plan)` under `plan` with telemetry on; `epoch_wait` gets
/// the pipeline's recorded spin time.
template <typename Run>
auto recorded(const TrialPlan& plan, std::uint64_t& epoch_wait, Run run) {
  obs::reset();
  obs::set_enabled(true);
  auto result = run(plan);
  obs::set_enabled(false);
  epoch_wait = obs::scrape().phase(obs::Phase::kEpochWait);
  obs::reset();
  return result;
}

void expect_same(const OnlineMoments& a, const OnlineMoments& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

/// The check every driver shares: a team ran under kTeam, none under
/// kLegacy, and `same(team_result, legacy_result)` holds.
template <typename Run, typename Same>
void expect_team_matches_legacy(Run run, Same same) {
  std::uint64_t legacy_wait = 0;
  std::uint64_t team_wait = 0;
  const auto legacy = recorded(kLegacy, legacy_wait, run);
  const auto team = recorded(kTeam, team_wait, run);
  EXPECT_EQ(legacy_wait, 0u);
  EXPECT_GT(team_wait, 0u);
  same(team, legacy);
}

TEST(TrialPlanKernel, EmptyBinsShardsUnderThePlan) {
  expect_team_matches_legacy(
      [](const TrialPlan& plan) {
        return run_empty_bins({.n = kN, .rounds = kRounds, .trials = kTrials,
                               .seed = 3, .plan = plan});
      },
      [](const EmptyBinsResult& a, const EmptyBinsResult& b) {
        expect_same(a.min_fraction, b.min_fraction);
        expect_same(a.mean_fraction, b.mean_fraction);
        EXPECT_EQ(a.below_quarter, b.below_quarter);
      });
}

TEST(TrialPlanKernel, LeakyShardsUnderThePlan) {
  expect_team_matches_legacy(
      [](const TrialPlan& plan) {
        return run_leaky({.n = kN, .lambda = 0.75, .burn_in = 1,
                          .rounds = kRounds, .trials = kTrials, .seed = 4,
                          .plan = plan});
      },
      [](const LeakyResult& a, const LeakyResult& b) {
        expect_same(a.window_max, b.window_max);
        expect_same(a.mean_total_per_bin, b.mean_total_per_bin);
        expect_same(a.mean_empty_fraction, b.mean_empty_fraction);
      });
}

TEST(TrialPlanKernel, MixedShardsUnderThePlan) {
  expect_team_matches_legacy(
      [](const TrialPlan& plan) {
        return run_mixed({.n = kN, .ball_ratio = 2.0, .weights = "bimodal",
                          .bin_profile = "capped", .rounds = kRounds,
                          .trials = kTrials, .seed = 5, .plan = plan});
      },
      [](const MixedResult& a, const MixedResult& b) {
        expect_same(a.window_max, b.window_max);
        expect_same(a.final_max, b.final_max);
        expect_same(a.window_max_weighted, b.window_max_weighted);
        expect_same(a.mean_empty_fraction, b.mean_empty_fraction);
        expect_same(a.max_utilization, b.max_utilization);
        expect_same(a.dropped_fraction, b.dropped_fraction);
      });
}

TEST(TrialPlanKernel, ProgressShardsUnderThePlan) {
  expect_team_matches_legacy(
      [](const TrialPlan& plan) {
        return run_progress({.n = kN, .rounds = kRounds, .trials = kTrials,
                             .seed = 6, .plan = plan});
      },
      [](const ProgressResult& a, const ProgressResult& b) {
        expect_same(a.min_progress, b.min_progress);
        expect_same(a.min_progress_normalized, b.min_progress_normalized);
        expect_same(a.mean_progress, b.mean_progress);
      });
}

TEST(TrialPlanKernel, CoverTimeShardsUnderThePlan) {
  expect_team_matches_legacy(
      [](const TrialPlan& plan) {
        return run_cover_time({.n = kN, .trials = kTrials, .seed = 7,
                               .max_rounds = kRounds, .plan = plan});
      },
      [](const CoverTimeResult& a, const CoverTimeResult& b) {
        expect_same(a.cover_time, b.cover_time);
        expect_same(a.first_token, b.first_token);
        expect_same(a.max_load_seen, b.max_load_seen);
        expect_same(a.single_walk, b.single_walk);
        EXPECT_EQ(a.timeouts, b.timeouts);
      });
}

TEST(TrialPlanKernel, TetrisWindowShardsUnderThePlan) {
  expect_team_matches_legacy(
      [](const TrialPlan& plan) {
        return run_tetris_window({.n = kN, .rounds = kRounds,
                                  .trials = kTrials, .seed = 8,
                                  .plan = plan});
      },
      [](const TetrisWindowResult& a, const TetrisWindowResult& b) {
        expect_same(a.max_load, b.max_load);
        expect_same(a.min_empty_fraction, b.min_empty_fraction);
        expect_same(a.mean_empty_fraction, b.mean_empty_fraction);
        expect_same(a.final_balls_per_bin, b.final_balls_per_bin);
      });
}
#endif  // RBB_TELEMETRY

}  // namespace
}  // namespace rbb

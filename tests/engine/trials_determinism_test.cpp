// Fan-out determinism of the Monte-Carlo trial runner: every trial
// draws from its own (seed, trial) RNG substream and writes only its own
// result slot, so aggregate results are bit-identical for any trial
// plan -- the promise design choice D5 makes and the engine's
// for_each_trial doc comment repeats.
#include "engine/trials.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "analysis/experiments.hpp"

namespace rbb {
namespace {

/// Sequential, a 2-wide and an 8-wide private trial pool.
constexpr TrialPlan kPlans[] = {{.trial_workers = 1},
                                {.trial_workers = 2},
                                {.trial_workers = 8}};

TEST(TrialsDeterminism, TrialSubstreamsIgnoreSchedulingOrder) {
  std::vector<std::uint64_t> legacy(64);
  for_each_trial(64, 42,
                 [&](std::uint32_t trial, Rng& rng) { legacy[trial] = rng(); });
  for (const TrialPlan& plan : kPlans) {
    std::vector<std::uint64_t> planned(64);
    for_each_trial(64, 42, plan, [&](std::uint32_t trial, Rng& rng) {
      planned[trial] = rng();
    });
    EXPECT_EQ(planned, legacy) << plan.trial_workers << " trial workers";
  }
}

TEST(TrialsDeterminism, StabilityMomentsIdenticalFor1And2And8Threads) {
  std::vector<StabilityResult> results;
  for (const TrialPlan& plan : kPlans) {
    StabilityParams p;
    p.n = 64;
    p.rounds = 256;
    p.trials = 24;
    p.seed = 7;
    p.start = InitialConfig::kAllInOne;
    p.plan = plan;
    results.push_back(run_stability(p));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    // Bit-identical, not approximately equal: the per-trial slots are
    // reduced in trial order regardless of which thread ran which trial.
    EXPECT_EQ(results[i].window_max.mean(), results[0].window_max.mean());
    EXPECT_EQ(results[i].window_max.variance(),
              results[0].window_max.variance());
    EXPECT_EQ(results[i].final_max.mean(), results[0].final_max.mean());
    EXPECT_EQ(results[i].min_empty_fraction.mean(),
              results[0].min_empty_fraction.mean());
    EXPECT_EQ(results[i].legit_window_fraction,
              results[0].legit_window_fraction);
    EXPECT_EQ(results[i].overall_max, results[0].overall_max);
    EXPECT_EQ(results[i].per_trial_window_max,
              results[0].per_trial_window_max);
  }
}

TEST(TrialsDeterminism, ExceptionsPropagateFromWorkerThreads) {
  EXPECT_THROW(for_each_trial(8, 1, TrialPlan{.trial_workers = 2},
                              [](std::uint32_t trial, Rng&) {
                                if (trial == 5) {
                                  throw std::runtime_error("boom");
                                }
                              }),
               std::runtime_error);
}

}  // namespace
}  // namespace rbb

// Tests for the telemetry metrics registry (src/obs/metrics.hpp): slot
// aggregation across pool workers, reset semantics, the disabled path
// recording nothing, and the RBB_TELEMETRY=0 zero-cost contract.
//
// The expectations are written to hold in BOTH builds: under
// RBB_TELEMETRY=0 every entry point is a no-op and scrape() returns
// zeros, so the expected totals collapse to 0.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "obs/trace.hpp"
#include "support/thread_pool.hpp"

namespace rbb::obs {
namespace {

// The zero-cost contract of the no-op build, pinned at compile time:
// ScopedPhase is an empty object (the optimizer deletes it outright)
// and enabled() is a constant false usable in constexpr contexts.
#if !RBB_TELEMETRY
static_assert(sizeof(ScopedPhase) == 1,
              "RBB_TELEMETRY=0 must make ScopedPhase stateless");
static_assert(!enabled(), "RBB_TELEMETRY=0 must hardwire enabled() off");
constexpr std::uint64_t kExpected = 0;  // no-op build records nothing
#else
constexpr std::uint64_t kExpected = 1;  // multiplier for real totals
#endif

/// Leaves the global registry the way every test expects to find it.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

TEST_F(MetricsTest, CounterAggregatesAcrossPoolWorkers) {
  constexpr std::uint64_t kTasks = 4096;
  for (const unsigned workers : {1u, 2u, 8u}) {
    reset();
    set_enabled(true);
    ThreadPool pool(workers);
    // kMixedDrops is not touched by the pool's own instrumentation, so
    // the total is exactly the task count -- regardless of how the
    // batch was split across worker slots.
    pool.for_each(kTasks, [](std::uint64_t) {
      add(Counter::kMixedDrops);
    });
    set_enabled(false);
    EXPECT_EQ(scrape().counter(Counter::kMixedDrops), kTasks * kExpected)
        << "workers=" << workers;
  }
}

TEST_F(MetricsTest, DeltaAndPhaseTotalsSum) {
  set_enabled(true);
  add(Counter::kLemireRetries, 3);
  add(Counter::kLemireRetries, 4);
  add_phase_ns(Phase::kRescan, 100);
  add_phase_ns(Phase::kRescan, 23);
  set_enabled(false);
  const MetricsSnapshot snap = scrape();
  EXPECT_EQ(snap.counter(Counter::kLemireRetries), 7 * kExpected);
  EXPECT_EQ(snap.phase(Phase::kRescan), 123 * kExpected);
}

TEST_F(MetricsTest, DisabledRecordsNothing) {
  ASSERT_FALSE(enabled());
  add(Counter::kMixedDrops, 1000);
  add_phase_ns(Phase::kThrow, 1000);
  {
    const ScopedPhase span(Phase::kCommit);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const MetricsSnapshot snap = scrape();
  EXPECT_EQ(snap.counter(Counter::kMixedDrops), 0u);
  EXPECT_EQ(snap.phase(Phase::kThrow), 0u);
  EXPECT_EQ(snap.phase(Phase::kCommit), 0u);
}

TEST_F(MetricsTest, ResetZeroesEverySlot) {
  set_enabled(true);
  ThreadPool pool(2);
  pool.for_each(64, [](std::uint64_t) { add(Counter::kMixedDrops); });
  set_enabled(false);
  ASSERT_EQ(scrape().counter(Counter::kMixedDrops), 64 * kExpected);
  reset();
  const MetricsSnapshot snap = scrape();
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    EXPECT_EQ(snap.counters[c], 0u) << to_string(static_cast<Counter>(c));
  }
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    EXPECT_EQ(snap.phase_ns[p], 0u) << to_string(static_cast<Phase>(p));
  }
}

TEST_F(MetricsTest, ScopedPhaseMeasuresElapsedTime) {
  set_enabled(true);
  {
    const ScopedPhase span(Phase::kPlaneFill);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  set_enabled(false);
  // >= 1 ms leaves generous slack below the 2 ms sleep; the no-op build
  // records exactly 0.
  EXPECT_GE(scrape().phase(Phase::kPlaneFill), 1000000 * kExpected);
}

TEST_F(MetricsTest, PoolInstrumentationCountsBatchesAndTasks) {
  set_enabled(true);
  ThreadPool pool(2);
  pool.for_each(128, [](std::uint64_t) {});
  set_enabled(false);
  const MetricsSnapshot snap = scrape();
  EXPECT_EQ(snap.counter(Counter::kPoolBatches), 1 * kExpected);
#if RBB_TELEMETRY
  EXPECT_GE(snap.counter(Counter::kPoolTasks), 1u);
  EXPECT_GT(snap.phase(Phase::kPoolTask) + snap.phase(Phase::kBarrierWait),
            0u);
#else
  EXPECT_EQ(snap.counter(Counter::kPoolTasks), 0u);
#endif
}

TEST_F(MetricsTest, BarrierWaitFractionIsZeroWhenPoolUnused) {
  const MetricsSnapshot empty;
  EXPECT_EQ(empty.barrier_wait_fraction(), 0.0);
}

TEST_F(MetricsTest, BarrierWaitFractionDividesWaitByWaitPlusBusy) {
  MetricsSnapshot snap;
  snap.phase_ns[static_cast<std::size_t>(Phase::kBarrierWait)] = 25;
  snap.phase_ns[static_cast<std::size_t>(Phase::kPoolTask)] = 75;
  EXPECT_DOUBLE_EQ(snap.barrier_wait_fraction(), 0.25);
}

TEST_F(MetricsTest, BarrierWaitFractionFoldsInEpochWait) {
  // Pipelined runs spin inside team task bodies (kEpochWait is a slice
  // of kPoolTask), so the fraction adds the spin to the numerator only.
  // With zero epoch_wait -- every barriered run -- the value reduces to
  // the pre-pipeline formula, pinned by the test above.
  MetricsSnapshot snap;
  snap.phase_ns[static_cast<std::size_t>(Phase::kBarrierWait)] = 25;
  snap.phase_ns[static_cast<std::size_t>(Phase::kPoolTask)] = 75;
  snap.phase_ns[static_cast<std::size_t>(Phase::kEpochWait)] = 15;
  EXPECT_DOUBLE_EQ(snap.barrier_wait_fraction(), 0.40);
}

TEST_F(MetricsTest, PipelineFillFractionIsZeroWithoutPipelinedRounds) {
  // The no-overlap pin: barriered execution records neither kOverlap
  // nor kEpochWait, so the fraction stays exactly 0 and the metrics
  // block of old runs is unchanged.
  const MetricsSnapshot empty;
  EXPECT_EQ(empty.pipeline_fill_fraction(), 0.0);
  MetricsSnapshot barriered;
  barriered.phase_ns[static_cast<std::size_t>(Phase::kBarrierWait)] = 25;
  barriered.phase_ns[static_cast<std::size_t>(Phase::kPoolTask)] = 75;
  EXPECT_EQ(barriered.pipeline_fill_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(barriered.barrier_wait_fraction(), 0.25);
}

TEST_F(MetricsTest, PipelineFillFractionDividesOverlapByOverlapPlusWait) {
  MetricsSnapshot snap;
  snap.phase_ns[static_cast<std::size_t>(Phase::kOverlap)] = 30;
  snap.phase_ns[static_cast<std::size_t>(Phase::kEpochWait)] = 10;
  EXPECT_DOUBLE_EQ(snap.pipeline_fill_fraction(), 0.75);
}

TEST_F(MetricsTest, CatalogueNamesAreStableJsonKeys) {
  // The serialized schema is append-only: renaming a counter or phase
  // breaks every consumer of `metrics.counters` / `metrics.phase_ns`.
  EXPECT_STREQ(to_string(Counter::kLemireRetries), "lemire_retries");
  EXPECT_STREQ(to_string(Counter::kTraceEventsDropped),
               "trace_events_dropped");
  EXPECT_STREQ(to_string(Phase::kBarrierWait), "barrier_wait");
  EXPECT_STREQ(to_string(Phase::kTrial), "trial");
  EXPECT_STREQ(to_string(Phase::kEpochWait), "epoch_wait");
  EXPECT_STREQ(to_string(Phase::kOverlap), "overlap");
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    EXPECT_STRNE(to_string(static_cast<Counter>(c)), "?");
  }
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    EXPECT_STRNE(to_string(static_cast<Phase>(p)), "?");
  }
}

}  // namespace
}  // namespace rbb::obs

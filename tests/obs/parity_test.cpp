// Telemetry parity rider: instrumenting the kernels must not change
// the science.  The sharded kernels run the same trajectory whether
// telemetry is disabled, enabled, or enabled with a trace capturing --
// the ScopedPhase/counter hooks read clocks and bump thread-local
// cells, never kernel state or RNG streams.
//
// Under RBB_TELEMETRY=0 all three configurations are literally the
// same code, so this test doubles as a no-op-build smoke.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/token_process.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "core/mixed_config.hpp"
#include "par/sharded_mixed.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_token_process.hpp"
#include "par/sharded_variants.hpp"

namespace rbb::obs {
namespace {

constexpr std::uint32_t kN = 2048;
constexpr std::uint64_t kSeed = 0x7e1e3ULL;
constexpr std::uint64_t kRounds = 32;

enum class Mode { kOff, kMetrics, kMetricsAndTrace };

/// Runs `body` under one telemetry configuration and restores the
/// registry to the disabled state afterwards.
template <typename Body>
auto with_mode(Mode mode, Body body) {
  reset();
  if (mode != Mode::kOff) {
    if (mode == Mode::kMetricsAndTrace) start_trace();
    set_enabled(true);
  }
  auto result = body();
  set_enabled(false);
  stop_trace();
  reset();
  return result;
}

/// Load-only trajectory: end-of-round stats plus the final load vector.
struct LoadTrajectory {
  std::vector<std::uint32_t> max_loads;
  std::vector<std::uint32_t> empty_bins;
  std::vector<std::uint64_t> departures;
  LoadConfig final_loads;

  bool operator==(const LoadTrajectory&) const = default;
};

LoadTrajectory run_load(Mode mode) {
  return with_mode(mode, [] {
    Rng cfg_rng(99);
    par::ShardedRepeatedBallsProcess proc(
        make_config(InitialConfig::kOnePerBin, kN, kN, cfg_rng), kSeed,
        par::ShardedOptions{.threads = 2, .shard_size = 256});
    LoadTrajectory t;
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      const RoundStats stats = proc.step();
      t.max_loads.push_back(stats.max_load);
      t.empty_bins.push_back(stats.empty_bins);
      t.departures.push_back(stats.departures);
    }
    t.final_loads = proc.loads();
    return t;
  });
}

/// Token state after a run: positions, progress, loads.
struct TokenState {
  std::vector<std::uint32_t> token_bin;
  std::vector<std::uint64_t> progress;
  LoadConfig loads;

  bool operator==(const TokenState&) const = default;
};

TokenState run_token(Mode mode) {
  return with_mode(mode, [] {
    par::ShardedTokenProcess proc(
        kN, identity_placement(kN), kSeed,
        par::ShardedOptions{.threads = 2, .shard_size = 256});
    proc.run(kRounds);
    TokenState state;
    for (std::uint32_t i = 0; i < proc.token_count(); ++i) {
      state.token_bin.push_back(proc.token_bin(i));
      state.progress.push_back(proc.progress(i));
    }
    state.loads = proc.loads();
    return state;
  });
}

TEST(ObsParity, LoadKernelTrajectoryUnchangedByTelemetry) {
  const LoadTrajectory off = run_load(Mode::kOff);
  const LoadTrajectory metrics = run_load(Mode::kMetrics);
  const LoadTrajectory traced = run_load(Mode::kMetricsAndTrace);
  EXPECT_EQ(off, metrics);
  EXPECT_EQ(off, traced);
}

TEST(ObsParity, TokenKernelStateUnchangedByTelemetry) {
  const TokenState off = run_token(Mode::kOff);
  const TokenState metrics = run_token(Mode::kMetrics);
  const TokenState traced = run_token(Mode::kMetricsAndTrace);
  EXPECT_EQ(off, metrics);
  EXPECT_EQ(off, traced);
}

#if RBB_TELEMETRY
/// Telemetry recorded while `make_proc()`'s process runs four rounds.
template <typename MakeProc>
MetricsSnapshot record_run(MakeProc make_proc) {
  reset();
  set_enabled(true);
  {
    auto proc = make_proc();
    proc.run(4);
  }
  set_enabled(false);
  const MetricsSnapshot snap = scrape();
  reset();
  return snap;
}

// The parity above must not be vacuous: in the instrumented build every
// sharded family really records its phases -- throw, commit and the
// rescan inside it, choose only where the family has that phase -- plus
// draw-chunk flushes and, on a team, pool batches.  (Under
// RBB_TELEMETRY=0 it records nothing by design; the zero-cost contract
// is pinned in metrics_test.cpp.)
TEST(ObsParity, InstrumentedRunActuallyRecords) {
  const auto expect_phases = [](const MetricsSnapshot& snap, bool choose,
                                const char* family) {
    EXPECT_GT(snap.phase(Phase::kThrow), 0u) << family;
    EXPECT_GT(snap.phase(Phase::kCommit), 0u) << family;
    EXPECT_GT(snap.phase(Phase::kRescan), 0u) << family;
    EXPECT_EQ(snap.phase(Phase::kChoose) > 0, choose) << family;
  };
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    const par::ShardedOptions options{.threads = threads, .shard_size = 256};
    Rng cfg_rng(99);
    const LoadConfig start =
        make_config(InitialConfig::kOnePerBin, kN, kN, cfg_rng);
    const MetricsSnapshot load = record_run([&] {
      return par::ShardedRepeatedBallsProcess(start, kSeed, options);
    });
    expect_phases(load, false, "load");
    EXPECT_GT(load.counter(Counter::kChunkFlushes), 0u);
    if (threads > 1) {
      EXPECT_GT(load.counter(Counter::kPoolBatches), 0u);
    }
    expect_phases(record_run([&] {
                    return par::ShardedTokenProcess(kN, identity_placement(kN),
                                                    kSeed, options);
                  }),
                  false, "token");
    expect_phases(record_run([&] {
                    return par::ShardedDChoicesProcess(start, 2, kSeed,
                                                       options);
                  }),
                  true, "dchoices");
    const MixedSpec spec = make_mixed_spec(kN, 4.0, "zipf", "capped");
    expect_phases(record_run([&] {
                    return par::ShardedMixedProcess(spec, kSeed, options);
                  }),
                  false, "mixed");
  }
}
#endif  // RBB_TELEMETRY

}  // namespace
}  // namespace rbb::obs

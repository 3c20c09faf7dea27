// Fine-grained google-benchmark views of the sharded round kernel
// (src/par/) that no tracked baseline reports: shard-size sensitivity,
// the per-phase breakdown of one sharded round, and the raw draw cost
// of the counter RNG next to the sequential generator.  Per-variant
// ns/ball of the sequential, seq-counter and sharded backends at
// n = 10^6 / 10^7 is the sharded_scaling experiment's job (`rbb run
// sharded_scaling --format=json`, tracked in BENCH_sharded.json).
#include <benchmark/benchmark.h>

#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "par/sharded_process.hpp"
#include "support/counter_rng.hpp"

namespace {

using namespace rbb;

// --- the kernels ------------------------------------------------------------

// Shard-size sensitivity at fixed n and threads: too small pays buffer
// bookkeeping, too large spills the commit phase out of cache.
void BM_ShardedRoundShardSize(benchmark::State& state) {
  constexpr std::uint32_t kN = 10000000;
  const auto shard_size = static_cast<std::uint32_t>(state.range(0));
  Rng rng(1);
  par::ShardedRepeatedBallsProcess proc(
      make_config(InitialConfig::kOnePerBin, kN, kN, rng), 1,
      par::ShardedOptions{1, shard_size});
  for (auto _ : state) benchmark::DoNotOptimize(proc.step());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_ShardedRoundShardSize)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Arg(65536)->Arg(262144)->Unit(benchmark::kMillisecond);

// Where a sharded round's time goes, from the obs telemetry registry
// (src/obs/): per-round throw / commit / rescan / plane-fill ns plus
// the barrier-wait fraction, as benchmark counters next to the wall
// time.  Phase totals are per-recording-thread (CPU-time-like), so at
// t threads the phase counters can sum past the wall time.  Built with
// RBB_TELEMETRY=0 every counter reads 0 -- the bench then measures the
// true uninstrumented kernel.
void BM_ShardedRoundPhaseBreakdown(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  Rng rng(1);
  par::ShardedRepeatedBallsProcess proc(
      make_config(InitialConfig::kOnePerBin, n, n, rng), 1,
      par::ShardedOptions{threads, 0});
  obs::reset();
  obs::set_enabled(true);
  for (auto _ : state) benchmark::DoNotOptimize(proc.step());
  obs::set_enabled(false);
  const obs::MetricsSnapshot snap = obs::scrape();
  obs::reset();
  const auto per_round = [&](obs::Phase p) {
    return static_cast<double>(snap.phase(p)) /
           static_cast<double>(state.iterations());
  };
  state.counters["throw_ns_per_round"] = per_round(obs::Phase::kThrow);
  state.counters["commit_ns_per_round"] = per_round(obs::Phase::kCommit);
  state.counters["rescan_ns_per_round"] = per_round(obs::Phase::kRescan);
  state.counters["plane_fill_ns_per_round"] =
      per_round(obs::Phase::kPlaneFill);
  state.counters["barrier_wait_fraction"] = snap.barrier_wait_fraction();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ShardedRoundPhaseBreakdown)
    ->Args({1000000, 1})->Args({1000000, 4})->Args({10000000, 4})
    ->Unit(benchmark::kMillisecond);

// --- the RNG primitives -----------------------------------------------------

void BM_PhiloxBlock(benchmark::State& state) {
  const CounterRng rng(8);
  std::uint64_t slot = 0;
  std::uint32_t acc = 0;
  for (auto _ : state) acc ^= rng.block(0, slot++)[0];
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhiloxBlock);

void BM_PhiloxBoundedIndex(benchmark::State& state) {
  const CounterRng rng(9);
  std::uint64_t slot = 0;
  std::uint32_t acc = 0;
  for (auto _ : state) acc ^= rng.index(0, slot++, 1000003);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhiloxBoundedIndex);

// The sequential generator's bounded draw, for the apples-to-apples
// "cost of going counter-based" number next to BM_PhiloxBoundedIndex.
void BM_XoshiroBoundedIndex(benchmark::State& state) {
  Rng rng(9);
  std::uint32_t acc = 0;
  for (auto _ : state) acc ^= rng.index(1000003);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_XoshiroBoundedIndex);

}  // namespace

BENCHMARK_MAIN();

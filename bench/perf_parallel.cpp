// D5 -- trial-sweep parallelization: scaling of the thread pool on the
// embarrassingly parallel Monte-Carlo workload the experiment drivers
// run, and the overhead of batch dispatch at small task counts.
#include <benchmark/benchmark.h>

#include "core/config.hpp"
#include "core/process.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace rbb;

/// One trial of the kind the drivers run: a short stability window.
void run_one_trial(std::uint64_t seed, std::uint64_t trial) {
  Rng rng(seed, trial);
  RepeatedBallsProcess proc(
      make_config(InitialConfig::kOnePerBin, 512, 512, rng), rng);
  benchmark::DoNotOptimize(proc.run(512));
}

void BM_TrialSweepThreads(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  ThreadPool pool(threads);
  constexpr std::int64_t kTrials = 16;
  for (auto _ : state) {
    pool.for_each(kTrials,
                  [&](std::uint64_t trial) { run_one_trial(7, trial); });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kTrials);
}
BENCHMARK(BM_TrialSweepThreads)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_DispatchOverhead(benchmark::State& state) {
  // Empty tasks: measures pure pool dispatch cost per batch.
  ThreadPool pool(2);
  const auto tasks = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    pool.for_each(tasks, [](std::uint64_t i) {
      benchmark::DoNotOptimize(i);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_DispatchOverhead)->Arg(1)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();

// Kernel throughput benchmarks (google-benchmark) covering the design
// ablations from DESIGN.md Sect. 3:
//   D1 -- Tetris arrival sampling: ball-by-ball vs multinomial splitting,
//   D2 -- load-only kernel vs identity-tracking token process,
//   D3 -- the round-end max/empty rescan every step() ends with, alone,
//   D4 -- xoshiro256++ vs std::mt19937_64 raw throughput,
//   D6 -- counter-RNG draw planes: scalar per-call Philox vs the
//         batched portable path vs the AVX2 path, and per-call vs
//         batched Lemire bounded reduction (the plane win measured in
//         isolation, not only end-to-end through sharded_scaling),
// plus the absolute rounds/second of every process in the repository.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "baselines/repeated_dchoices.hpp"
#include "core/config.hpp"
#include "core/process.hpp"
#include "core/kernel/pipeline.hpp"
#include "core/kernel/token_kernel.hpp"
#include "engine/engine.hpp"
#include "markov/rbb_chain.hpp"
#include "support/counter_rng.hpp"
#include "support/draw_plane.hpp"
#include "support/samplers.hpp"
#include "tetris/tetris.hpp"

namespace {

using namespace rbb;

void BM_RepeatedBallsRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(1);
  RepeatedBallsProcess proc(make_config(InitialConfig::kOnePerBin, n, n, rng),
                            rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proc.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RepeatedBallsRound)->Arg(1024)->Arg(8192)->Arg(65536)
    ->Arg(1000000);

// The same kernel driven through Engine<P> with two observers attached:
// the engine's compile-time composition must add nothing measurable over
// the raw step() loop above.
void BM_EngineRepeatedBallsRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(1);
  Engine engine(RepeatedBallsProcess(
      make_config(InitialConfig::kOnePerBin, n, n, rng), rng));
  WindowMaxLoad wmax;
  MinEmptyFraction memp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_rounds(1, wmax, memp));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EngineRepeatedBallsRound)->Arg(1024)->Arg(8192)->Arg(65536)
    ->Arg(1000000);

// D2: the identity-tracking process pays for queue manipulation and
// per-token bookkeeping; this quantifies the load-only kernel's edge.
void BM_TokenProcessRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  kernel::SequentialTokenProcess proc(n, identity_placement(n), Rng(2));
  for (auto _ : state) {
    proc.step();
    benchmark::DoNotOptimize(proc.round());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TokenProcessRound)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_TokenProcessRoundWithVisits(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  kernel::SequentialTokenProcess proc(
      n, identity_placement(n), Rng(3),
      kernel::TokenOptions{.track_visits = true});
  for (auto _ : state) {
    proc.step();
    benchmark::DoNotOptimize(proc.round());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TokenProcessRoundWithVisits)->Arg(1024)->Arg(8192);

// D1: Tetris arrival sampling strategies.
void BM_TetrisRoundBallByBall(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(4);
  TetrisProcess proc(make_config(InitialConfig::kRandom, n, n, rng), rng, 0,
                     ArrivalSampling::kBallByBall);
  for (auto _ : state) benchmark::DoNotOptimize(proc.step());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TetrisRoundBallByBall)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_TetrisRoundSplitSampling(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(5);
  TetrisProcess proc(make_config(InitialConfig::kRandom, n, n, rng), rng, 0,
                     ArrivalSampling::kSplit);
  for (auto _ : state) benchmark::DoNotOptimize(proc.step());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TetrisRoundSplitSampling)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_RepeatedDChoicesRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(6);
  RepeatedDChoicesProcess proc(
      make_config(InitialConfig::kOnePerBin, n, n, rng), 2, rng);
  for (auto _ : state) benchmark::DoNotOptimize(proc.step());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RepeatedDChoicesRound)->Arg(1024)->Arg(8192);

// D3: the round-end rescan (two vectorized reductions) that yields
// every sequential round's max load and empty count, in isolation --
// the share of BM_RepeatedBallsRound it accounts for.
void BM_RoundEndScan(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(7);
  RepeatedBallsProcess proc(make_config(InitialConfig::kOnePerBin, n, n, rng),
                            rng);
  proc.run(64);
  for (auto _ : state) {
    kernel::LoadScan scan;
    scan.add_range(proc.loads().data(), n);
    benchmark::DoNotOptimize(scan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RoundEndScan)->Arg(8192)->Arg(65536);

// D4: raw generator throughput.
void BM_RngXoshiro(benchmark::State& state) {
  Rng rng(8);
  std::uint64_t acc = 0;
  for (auto _ : state) acc ^= rng();
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngXoshiro);

void BM_RngMt19937(benchmark::State& state) {
  std::mt19937_64 rng(8);
  std::uint64_t acc = 0;
  for (auto _ : state) acc ^= rng();
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngMt19937);

void BM_RngBounded(benchmark::State& state) {
  Rng rng(9);
  std::uint64_t acc = 0;
  for (auto _ : state) acc ^= rng.below(1000003);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngBounded);

// ---- D6: counter-RNG draw planes (support/draw_plane.hpp) ----------------
// One plane of kPlaneDraws bounded draws per iteration; items processed
// = draws, so google-benchmark's items/sec column reads as draws/sec.
// The scalar baseline makes the identical draws one Philox block at a
// time (the pre-plane hot path of every counter-stream kernel).

constexpr std::size_t kPlaneDraws = 4096;
constexpr std::uint32_t kPlaneBound = 1000003;

void BM_CounterDrawScalarPerCall(benchmark::State& state) {
  const CounterRng rng(8);
  std::vector<std::uint32_t> out(kPlaneDraws);
  std::uint64_t round = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kPlaneDraws; ++i) {
      out[i] = rng.index(round, i, kPlaneBound);
    }
    benchmark::DoNotOptimize(out.data());
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPlaneDraws));
}
BENCHMARK(BM_CounterDrawScalarPerCall);

/// Times one fill_range plane per iteration under a pinned dispatch
/// branch; skips cleanly when the machine lacks the ISA.
void plane_range_bench(benchmark::State& state, PlaneIsa isa) {
  if (!plane_isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this machine");
    return;
  }
  force_plane_isa(isa);
  const CounterRng rng(8);
  const DrawPlane plane(rng);
  std::vector<std::uint32_t> out(kPlaneDraws);
  std::uint64_t round = 0;
  for (auto _ : state) {
    plane.fill_range(round, 0, kPlaneDraws, kPlaneBound, out.data());
    benchmark::DoNotOptimize(out.data());
    ++round;
  }
  reset_plane_isa();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPlaneDraws));
}

void BM_DrawPlaneRangePortable(benchmark::State& state) {
  plane_range_bench(state, PlaneIsa::kPortable);
}
BENCHMARK(BM_DrawPlaneRangePortable);

void BM_DrawPlaneRangeAvx2(benchmark::State& state) {
  plane_range_bench(state, PlaneIsa::kAvx2);
}
BENCHMARK(BM_DrawPlaneRangeAvx2);

/// The gathered-slot shape the relaunch/d-choices paths use: slot list
/// = a shuffled sparse subset of bins.
void plane_gather_bench(benchmark::State& state, PlaneIsa isa) {
  if (!plane_isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this machine");
    return;
  }
  force_plane_isa(isa);
  const CounterRng rng(8);
  const DrawPlane plane(rng);
  Rng slot_rng(3);
  std::vector<std::uint32_t> slots(kPlaneDraws);
  for (auto& s : slots) s = slot_rng.index(1u << 20);
  std::vector<std::uint32_t> out(kPlaneDraws);
  std::uint64_t round = 0;
  for (auto _ : state) {
    plane.fill_gather(round, slots.data(), 0, kPlaneDraws, kPlaneBound,
                      out.data());
    benchmark::DoNotOptimize(out.data());
    ++round;
  }
  reset_plane_isa();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPlaneDraws));
}

void BM_DrawPlaneGatherPortable(benchmark::State& state) {
  plane_gather_bench(state, PlaneIsa::kPortable);
}
BENCHMARK(BM_DrawPlaneGatherPortable);

void BM_DrawPlaneGatherAvx2(benchmark::State& state) {
  plane_gather_bench(state, PlaneIsa::kAvx2);
}
BENCHMARK(BM_DrawPlaneGatherAvx2);

// Per-call vs batched Lemire over the same pre-generated words: what
// the hoisted threshold + deferred retry list buy on top of block
// batching.
void BM_LemireBoundedPerCall(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::uint64_t> w0(kPlaneDraws), w1(kPlaneDraws);
  for (std::size_t i = 0; i < kPlaneDraws; ++i) {
    w0[i] = rng();
    w1[i] = rng();
  }
  std::vector<std::uint32_t> out(kPlaneDraws);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kPlaneDraws; ++i) {
      out[i] = lemire_bounded(w0[i], w1[i], kPlaneBound);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPlaneDraws));
}
BENCHMARK(BM_LemireBoundedPerCall);

void BM_LemireBoundedBatch(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::uint64_t> w0(kPlaneDraws), w1(kPlaneDraws);
  for (std::size_t i = 0; i < kPlaneDraws; ++i) {
    w0[i] = rng();
    w1[i] = rng();
  }
  std::vector<std::uint32_t> out(kPlaneDraws);
  for (auto _ : state) {
    lemire_bounded_batch(w0.data(), w1.data(), kPlaneDraws, kPlaneBound,
                         out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPlaneDraws));
}
BENCHMARK(BM_LemireBoundedBatch);

void BM_BinomialTetrisLaw(benchmark::State& state) {
  // The Z-chain's hot sampler: Bin(3n/4, 1/n), inversion path.
  Rng rng(10);
  const BinomialSampler sampler(768, 1.0 / 1024.0);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += sampler(rng);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BinomialTetrisLaw);

void BM_BinomialBtrd(benchmark::State& state) {
  // The splitting sampler's hot path: large-np BTRD draws.
  Rng rng(11);
  const BinomialSampler sampler(100000, 0.3);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += sampler(rng);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BinomialBtrd);

// ---- exact-chain kernels (markov/): matrix construction and the two
// stationary solvers (direct Gaussian solve vs power iteration).  Arg is
// n (= m); the state count C(2n-1, n-1) grows ~4^n.
void BM_ExactMatrixBuild(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const StateSpace space(n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_rbb_transition_matrix(space));
  }
  state.SetLabel(std::to_string(space.size()) + " states");
}
BENCHMARK(BM_ExactMatrixBuild)->Arg(3)->Arg(4)->Arg(5)->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_StationaryDirectSolve(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const StateSpace space(n, n);
  const DenseMatrix p = build_rbb_transition_matrix(space);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stationary_distribution(p));
  }
}
BENCHMARK(BM_StationaryDirectSolve)->Arg(4)->Arg(5)->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_StationaryPowerIteration(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const StateSpace space(n, n);
  const DenseMatrix p = build_rbb_transition_matrix(space);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stationary_by_power_iteration(p, 1e-12));
  }
}
BENCHMARK(BM_StationaryPowerIteration)->Arg(4)->Arg(5)->Arg(6)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// Cross-module integration tests: the full pipelines an experiment runs,
// exercised end-to-end at reduced scale, plus cross-validation between
// independent implementations of the same quantity.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analysis/experiments.hpp"
#include "baselines/independent_walks.hpp"
#include "baselines/oneshot.hpp"
#include "core/process.hpp"
#include "core/kernel/token_kernel.hpp"
#include "coupling/coupling.hpp"
#include "graph/graph.hpp"
#include "support/bounds.hpp"
#include "tetris/tetris.hpp"
#include "traversal/traversal.hpp"

namespace rbb {
namespace {

TEST(Integration, LoadOnlyAndTokenProcessAgreeInDistribution) {
  // The load-only kernel and the token process simulate the same Markov
  // chain on loads; their equilibrium empty-bin fractions must agree.
  constexpr std::uint32_t n = 256;
  constexpr int kRounds = 2000;

  Rng rng_a(99);
  RepeatedBallsProcess loads(
      make_config(InitialConfig::kOnePerBin, n, n, rng_a), rng_a);
  double empty_a = 0.0;
  for (int t = 0; t < kRounds; ++t) {
    empty_a += static_cast<double>(loads.step().empty_bins);
  }

  std::vector<std::uint32_t> placement(n);
  for (std::uint32_t i = 0; i < n; ++i) placement[i] = i;
  kernel::SequentialTokenProcess tokens(n, std::move(placement), Rng(98));
  double empty_b = 0.0;
  for (int t = 0; t < kRounds; ++t) {
    tokens.step();
    empty_b += static_cast<double>(tokens.empty_bins());
  }
  EXPECT_NEAR(empty_a / kRounds / n, empty_b / kRounds / n, 0.02);
}

TEST(Integration, CliqueGraphMatchesImplicitClique) {
  // RBB on the explicit K_n CSR graph vs the implicit clique: the
  // destination law differs (neighbors exclude the source), but the
  // qualitative equilibrium (empty fraction, window max) must be close.
  constexpr std::uint32_t n = 128;
  const Graph k = make_complete(n);
  constexpr int kRounds = 1500;

  auto equilibrium = [&](const Graph* g, std::uint64_t seed) {
    Rng rng(seed);
    RepeatedBallsProcess proc(
        make_config(InitialConfig::kOnePerBin, n, n, rng), g, rng);
    double empty = 0.0;
    std::uint32_t wmax = 0;
    for (int t = 0; t < kRounds; ++t) {
      const RoundStats s = proc.step();
      empty += static_cast<double>(s.empty_bins);
      wmax = std::max(wmax, s.max_load);
    }
    return std::make_pair(empty / kRounds / n, wmax);
  };
  const auto [empty_implicit, max_implicit] = equilibrium(nullptr, 5);
  const auto [empty_explicit, max_explicit] = equilibrium(&k, 6);
  EXPECT_NEAR(empty_implicit, empty_explicit, 0.03);
  EXPECT_NEAR(static_cast<double>(max_implicit),
              static_cast<double>(max_explicit), 5.0);
}

TEST(Integration, CoupledOriginalMatchesStandaloneStatistics) {
  // The original-process marginal inside the coupling is the same chain
  // as a standalone RepeatedBallsProcess; equilibrium empty fractions of
  // the two implementations must agree.
  constexpr std::uint32_t n = 256;
  constexpr int kRounds = 1500;

  Rng rng_a(7);
  LoadConfig start = make_config(InitialConfig::kRandom, n, n, rng_a);
  if (empty_bins(start) < n / 4) {
    RepeatedBallsProcess warm(std::move(start), rng_a);
    warm.step();
    start = warm.loads();
  }

  CoupledProcesses coupled(start, Rng(8));
  double empty_coupled = 0.0;
  for (int t = 0; t < kRounds; ++t) {
    coupled.step();
    empty_coupled += static_cast<double>(empty_bins(coupled.original_loads()));
  }

  RepeatedBallsProcess standalone(start, Rng(9));
  double empty_standalone = 0.0;
  for (int t = 0; t < kRounds; ++t) {
    empty_standalone += static_cast<double>(standalone.step().empty_bins);
  }
  EXPECT_NEAR(empty_coupled / kRounds / n, empty_standalone / kRounds / n,
              0.02);
}

TEST(Integration, TraversalMinProgressConsistentWithProgressDriver) {
  // Two independent code paths measure FIFO progress; both must satisfy
  // the Sect. 4 lower bound shape min_progress >= ~t / (c log n).
  ProgressParams p;
  p.n = 128;
  p.rounds = 1024;
  p.trials = 2;
  const ProgressResult r = run_progress(p);

  TraversalParams tp;
  tp.n = 128;
  tp.max_rounds = 1024;
  const TraversalResult tr = run_traversal(tp, 13);
  const double per_round_a = r.min_progress.mean() / 1024.0;
  const double per_round_b =
      static_cast<double>(tr.min_progress) / static_cast<double>(tr.rounds_run);
  EXPECT_NEAR(per_round_a, per_round_b, 0.25);
  EXPECT_GT(per_round_b, 0.05);
}

TEST(Integration, StabilityWindowConsistentWithSqrtTSeries) {
  // run_sqrt_t's final running max is the same observable as
  // run_stability's window max at the same horizon; cross-validate.
  constexpr std::uint32_t n = 128;
  constexpr std::uint64_t horizon = 2048;

  StabilityParams sp;
  sp.n = n;
  sp.rounds = horizon;
  sp.trials = 4;
  sp.seed = 21;
  const StabilityResult sr = run_stability(sp);

  SqrtTParams qp;
  qp.n = n;
  qp.checkpoints = {horizon};
  qp.trials = 4;
  qp.seed = 21;
  const SqrtTResult qr = run_sqrt_t(qp);
  // Same seeds, same trial streams, same process: identical results.
  EXPECT_DOUBLE_EQ(qr.running_max_mean[0], sr.window_max.mean());
}

TEST(Integration, OneShotLowerBoundsRepeatedWindowMax) {
  // Every round of RBB is at least as loaded as a fresh one-shot throw is
  // on average over a window -- the Theta(log n / log log n) lower bound
  // transfers.  Compare window maxima: repeated >= single-round one-shot.
  constexpr std::uint32_t n = 1024;
  Rng rng(31);
  const std::uint32_t oneshot = oneshot_max_load(n, n, rng);

  StabilityParams sp;
  sp.n = n;
  sp.rounds = 2000;
  sp.trials = 2;
  sp.seed = 32;
  const StabilityResult sr = run_stability(sp);
  EXPECT_GE(sr.window_max.mean() + 1.0, static_cast<double>(oneshot));
}

TEST(Integration, FaultInjectionRoundTripsThroughProcess) {
  // apply_fault -> reassign -> convergence: the full Sect. 4.1 pipeline.
  constexpr std::uint32_t n = 256;
  Rng rng(41);
  RepeatedBallsProcess proc(
      make_config(InitialConfig::kOnePerBin, n, n, rng), rng);
  proc.run(100);
  EXPECT_TRUE(proc.is_legitimate(4.0));

  Rng fault_rng(42);
  proc.reassign(apply_fault(FaultStrategy::kAllToOne, n, n, proc.loads(),
                            fault_rng));
  EXPECT_FALSE(proc.is_legitimate(4.0));

  // Theorem 1: back to legitimate within O(n) rounds.
  std::uint64_t t = 0;
  while (!proc.is_legitimate(4.0) && t < 8ull * n) {
    proc.step();
    ++t;
  }
  EXPECT_TRUE(proc.is_legitimate(4.0));
  EXPECT_LE(t, 2ull * n);
}

TEST(Integration, TetrisDominatesIndependentlyMeasuredRBB) {
  // Statistical (not coupled) domination: the Tetris window max across
  // trials should upper-bound the RBB window max across trials, because
  // Tetris has more arrivals than RBB has departures (3n/4 vs ~0.63n).
  StabilityParams p;
  p.n = 256;
  p.rounds = 2000;
  p.trials = 3;
  p.seed = 51;
  const StabilityResult rbb_r = run_stability(p);
  p.process = StabilityProcess::kTetris;
  p.start = InitialConfig::kRandom;  // Tetris wants >= n/4 empty bins
  const StabilityResult tetris_r = run_stability(p);
  EXPECT_GE(tetris_r.window_max.mean() + 2.0, rbb_r.window_max.mean());
}

}  // namespace
}  // namespace rbb

// Compilation + smoke test of the umbrella header: every public type is
// reachable through a single include, and a miniature end-to-end pipeline
// touches one object from each subsystem.
#include "rbb.hpp"

#include <gtest/gtest.h>

namespace rbb {
namespace {

TEST(Umbrella, EverySubsystemReachable) {
  Rng rng(1);                                        // support/rng
  const BinomialSampler sampler(12, 0.25);           // support/samplers
  OnlineMoments moments;                             // support/stats
  moments.add(static_cast<double>(sampler(rng)));
  EXPECT_GE(chernoff_upper_bound(3.0, 0.5), 0.0);    // support/bounds
  DenseSet set(4);                                   // support/dense_set
  set.insert(2);
  Table table({"x"});                                // support/table
  table.row().cell(std::uint64_t{1});
  EXPECT_FALSE(table.markdown().empty());
  EXPECT_EQ(to_string(BenchScale::kSmoke), "smoke"); // support/scale

  const Graph g = make_cycle(8);                     // graph
  LoadConfig q = make_config(InitialConfig::kOnePerBin, 8, 8, rng);  // core
  RepeatedBallsProcess process(q, rng.split());      // core/process
  process.run(16);
  EXPECT_EQ(total_balls(process.loads()), 8u);

  kernel::SequentialTokenProcess tokens(             // core/kernel
      8, identity_placement(4), rng.split(),
      kernel::TokenOptions{.policy = QueuePolicy::kLifo});
  tokens.run(4);

  const LoadConfig faulted =                         // core/faults
      apply_fault(FaultStrategy::kRandom, 8, 8, q, rng);
  EXPECT_EQ(total_balls(faulted), 8u);

  TetrisProcess tetris(q, rng.split());              // tetris
  tetris.run(4);
  ZChain chain(64, 3);                               // tetris/zchain
  chain.step(rng);
  LeakyBinsProcess leaky(q, 0.5, rng.split());       // tetris/leaky
  leaky.run(4);

  CoupledProcesses coupled(LoadConfig{1, 0, 1, 0, 1, 0, 1, 0},
                           rng.split());             // coupling
  coupled.run(4);

  EXPECT_LE(oneshot_max_load(8, 8, rng), 8u);        // baselines
  IndependentWalksProcess walks(8, {0, 1, 2, 3}, nullptr, rng.split());
  walks.run(4);
  RepeatedDChoicesProcess dchoices(q, 2, rng.split());
  dchoices.run(4);
  ClosedJacksonNetwork jackson(q, rng.split());
  jackson.run_until(2.0);

  TraversalParams tp;                                // traversal
  tp.n = 8;
  tp.max_rounds = 2000;
  const TraversalResult tr = run_traversal(tp, 5);
  EXPECT_GT(tr.rounds_run, 0u);

  StabilityParams sp;                                // analysis
  sp.n = 16;
  sp.rounds = 32;
  sp.trials = 1;
  EXPECT_GT(run_stability(sp).window_max.mean(), 0.0);

  (void)g;
}

}  // namespace
}  // namespace rbb

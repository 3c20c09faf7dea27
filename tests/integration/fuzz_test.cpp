// Randomized operation-sequence tests ("fuzzing" with a fixed seed
// sweep): drive each process through random interleavings of steps,
// reassignments/faults and queries, validating the internal invariant
// checkers after every operation.  Catches bookkeeping drift that
// straight-line unit tests cannot reach.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "baselines/jackson.hpp"
#include "baselines/repeated_dchoices.hpp"
#include "core/faults.hpp"
#include "core/mixed_config.hpp"
#include "core/mixed_process.hpp"
#include "core/process.hpp"
#include "core/kernel/token_kernel.hpp"
#include "engine/engine.hpp"
#include "graph/graph.hpp"
#include "par/sharded_mixed.hpp"
#include "selfstab/israeli_jalfon.hpp"
#include "support/serial.hpp"
#include "tetris/leaky.hpp"
#include "tetris/tetris.hpp"

namespace rbb {
namespace {

class FuzzSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(FuzzSweep, RepeatedBallsProcessSurvivesRandomOps) {
  const auto [n, seed] = GetParam();
  Rng op_rng(static_cast<std::uint64_t>(seed) * 7919 + n);
  Rng proc_rng = op_rng.split();
  RepeatedBallsProcess proc(
      make_config(InitialConfig::kRandom, n, n, proc_rng), proc_rng.split());
  for (int op = 0; op < 300; ++op) {
    switch (op_rng.below(8)) {
      case 0: {  // burst of rounds
        proc.run(op_rng.below(20));
        break;
      }
      case 1: {  // full adversarial fault
        const auto strategy = static_cast<FaultStrategy>(op_rng.below(4));
        proc.reassign(apply_fault(strategy, n, proc.ball_count(),
                                  proc.loads(), op_rng));
        break;
      }
      case 2: {  // partial fault
        proc.reassign(
            apply_partial_fault(proc.loads(), op_rng.below(n / 2 + 1)));
        break;
      }
      default: {  // single round + queries
        proc.step();
        (void)proc.is_legitimate();
        (void)proc.max_load();
        (void)proc.empty_bins();
        break;
      }
    }
    ASSERT_NO_THROW(proc.check_invariants()) << "op " << op;
    ASSERT_EQ(total_balls(proc.loads()), n) << "op " << op;
  }
}

TEST_P(FuzzSweep, TokenCoreSurvivesRandomOps) {
  const auto [n, seed] = GetParam();
  Rng op_rng(static_cast<std::uint64_t>(seed) * 104729 + n);
  const kernel::TokenOptions options{
      .track_visits = (n <= 256),
      .policy = static_cast<QueuePolicy>(op_rng.below(3)),
      .track_delays = true};
  std::vector<std::uint32_t> placement(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    placement[i] = op_rng.index(n);
  }
  kernel::SequentialTokenProcess proc(n, std::move(placement), op_rng.split(),
                                      options);
  for (int op = 0; op < 200; ++op) {
    switch (op_rng.below(6)) {
      case 0: {
        proc.run(op_rng.below(10));
        break;
      }
      case 1: {
        proc.reassign(apply_fault_tokens(
            static_cast<FaultStrategy>(op_rng.below(4)), n, n, op_rng));
        break;
      }
      default: {
        proc.step();
        (void)proc.max_load();
        (void)proc.min_progress();
        break;
      }
    }
    ASSERT_NO_THROW(proc.check_invariants()) << "op " << op;
  }
  // Delay histogram accumulated something and never exceeded the round
  // count.
  EXPECT_GT(proc.delay_histogram().total(), 0u);
  EXPECT_LE(proc.delay_histogram().max_value(), proc.round());
}

TEST_P(FuzzSweep, TetrisAndLeakySurviveRandomRuns) {
  const auto [n, seed] = GetParam();
  Rng op_rng(static_cast<std::uint64_t>(seed) * 31337 + n);
  TetrisProcess tetris(make_config(InitialConfig::kRandom, n, n, op_rng),
                       op_rng.split());
  LeakyBinsProcess leaky(make_config(InitialConfig::kOnePerBin, n, n, op_rng),
                         0.5 + 0.5 * op_rng.uniform(), op_rng.split());
  for (int op = 0; op < 100; ++op) {
    tetris.run(op_rng.below(15));
    leaky.run(op_rng.below(15));
    ASSERT_NO_THROW(tetris.check_invariants()) << "op " << op;
    ASSERT_NO_THROW(leaky.check_invariants()) << "op " << op;
  }
}

TEST_P(FuzzSweep, DChoicesAndJacksonSurviveRandomRuns) {
  const auto [n, seed] = GetParam();
  Rng op_rng(static_cast<std::uint64_t>(seed) * 65537 + n);
  RepeatedDChoicesProcess dchoices(
      make_config(InitialConfig::kRandom, n, n, op_rng),
      1 + static_cast<std::uint32_t>(op_rng.below(3)), op_rng.split());
  ClosedJacksonNetwork jackson(
      make_config(InitialConfig::kRandom, n, n, op_rng), op_rng.split());
  double horizon = 0.0;
  for (int op = 0; op < 100; ++op) {
    dchoices.run(op_rng.below(15));
    horizon += op_rng.uniform() * 5.0;
    jackson.run_until(horizon);
    ASSERT_NO_THROW(dchoices.check_invariants()) << "op " << op;
    ASSERT_NO_THROW(jackson.check_invariants()) << "op " << op;
  }
  EXPECT_EQ(total_balls(dchoices.loads()), n);
  EXPECT_EQ(total_balls(jackson.loads()), n);
}

TEST_P(FuzzSweep, IsraeliJalfonSurvivesRandomOps) {
  const auto [n, seed] = GetParam();
  Rng op_rng(static_cast<std::uint64_t>(seed) * 15485863 + n);
  // Alternate between clique mode and a random 4-regular graph.
  const bool use_graph = op_rng.bernoulli(0.5);
  const Graph graph = use_graph ? make_random_regular(n, 4, op_rng)
                                : make_complete(2);  // unused placeholder
  const double laziness = op_rng.uniform() * 0.9;
  IsraeliJalfonProcess proc(use_graph ? &graph : nullptr, n,
                            TokenPlacement::kRandomHalf, op_rng.split(),
                            laziness);
  for (int op = 0; op < 200; ++op) {
    switch (op_rng.below(4)) {
      case 0: {
        for (std::uint64_t r = op_rng.below(10); r > 0; --r) proc.step();
        break;
      }
      case 1: {
        (void)proc.run_until_single(op_rng.below(50));
        break;
      }
      default: {
        proc.step();
        (void)proc.is_legitimate();
        (void)proc.token_count();
        break;
      }
    }
    ASSERT_NO_THROW(proc.check_invariants()) << "op " << op;
    ASSERT_GE(proc.token_count(), 1u) << "op " << op;
  }
}

// Mixed-regime conservation fuzz: random (ball ratio, weight profile,
// bin profile) scenarios through both stream policies, revalidating
// check_invariants() after every burst and asserting the conservation
// law directly -- initial weighted mass equals current mass plus
// cumulative dropped mass, no capacity is ever exceeded, and zero-rate
// bins never lose a ball (they only hoard).
TEST_P(FuzzSweep, MixedRegimeConservesWeightedMass) {
  const auto [n, seed] = GetParam();
  Rng op_rng(static_cast<std::uint64_t>(seed) * 48611 + n);
  const double ratios[] = {0.5, 1.0, 2.0, 8.0};
  const double ratio = ratios[op_rng.below(4)];
  const char* const weight_names[] = {"unit", "bimodal", "zipf"};
  const char* const bin_names[] = {"uniform", "two-speed", "stalled-tenth",
                                   "capped"};
  const std::string weights = weight_names[op_rng.below(3)];
  const std::string bins = bin_names[op_rng.below(4)];
  const MixedSpec spec = make_mixed_spec(n, ratio, weights, bins);

  weighted_load_t initial_weight = 0;
  const std::uint32_t k =
      static_cast<std::uint32_t>(spec.weights.class_weights.size());
  for (std::uint32_t u = 0; u < spec.bins; ++u) {
    for (std::uint32_t c = 0; c < k; ++c) {
      initial_weight +=
          static_cast<weighted_load_t>(
              spec.class_counts[static_cast<std::size_t>(u) * k + c]) *
          spec.weights.class_weights[c];
    }
  }

  const auto fuzz = [&](auto proc) {
    std::vector<load_t> stalled_floor(spec.bins, 0);
    for (std::uint32_t u = 0; u < spec.bins; ++u) {
      if (spec.rates[u] == 0) stalled_floor[u] = proc.loads()[u];
    }
    for (int op = 0; op < 60; ++op) {
      proc.run(op_rng.below(10));
      ASSERT_NO_THROW(proc.check_invariants()) << "op " << op;
      ASSERT_EQ(proc.total_balls() + proc.dropped_balls(), spec.balls)
          << "op " << op;
      ASSERT_EQ(proc.total_weight() + proc.dropped_weight(), initial_weight)
          << "op " << op;
      for (std::uint32_t u = 0; u < spec.bins; ++u) {
        if (spec.capacities[u] != 0) {
          ASSERT_LE(proc.loads()[u], spec.capacities[u])
              << "op " << op << " bin " << u;
        }
        if (spec.rates[u] == 0) {
          ASSERT_GE(proc.loads()[u], stalled_floor[u])
              << "op " << op << " stalled bin " << u;
          stalled_floor[u] = proc.loads()[u];
        }
      }
    }
  };
  fuzz(MixedProcess(spec, op_rng.split()));
  fuzz(par::SequentialCounterMixedProcess(
      spec, static_cast<std::uint64_t>(seed) * 1299709 + n));
}

// Drives `engine` for `rounds` rounds with InvariantCheck after every
// round, and after each round whose index (counted across calls in
// `driven`) is a multiple of the schedule's period lets `inject`
// reassign the process -- the periodic adversary of Sect. 4.1, injected
// right after the round's observation.  Returns the faults injected.
template <typename P, typename Inject>
std::uint64_t run_with_faults(Engine<P>& engine, std::uint64_t rounds,
                              const FaultSchedule& schedule,
                              std::uint64_t& driven, Inject& inject) {
  InvariantCheck check;
  std::uint64_t faults = 0;
  for (std::uint64_t t = 0; t < rounds; ++t) {
    engine.run_rounds(1, check);
    if (schedule.fires_at(++driven)) {
      inject(engine.process());
      ++faults;
    }
  }
  return faults;
}

// The mixed fault family: an adversarial per-class census that keeps
// per-class totals and honors capacities (apply_fault_mixed).
template <typename P>
void inject_mixed_fault(P& p, FaultStrategy strategy, Rng& rng) {
  const std::uint32_t n = p.bin_count();
  const std::uint32_t k = p.class_count();
  std::vector<load_t> current(static_cast<std::size_t>(n) * k);
  std::vector<load_t> caps(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    caps[u] = p.capacity(u);
    for (std::uint32_t c = 0; c < k; ++c) {
      current[static_cast<std::size_t>(u) * k + c] = p.class_load(u, c);
    }
  }
  p.reassign(apply_fault_mixed(strategy, n, k, current, caps, rng));
}

// Engine-driven mixed fuzz: the same revalidation through the Engine's
// observer path (InvariantCheck after *every* round), now with mixed
// faults injecting adversarial per-class censuses, so conservation must
// survive every fault on top of the drops the capped/stalled profiles
// already force.
TEST_P(FuzzSweep, EngineMixedRegimeSurvivesRandomRuns) {
  const auto [n, seed] = GetParam();
  Rng op_rng(static_cast<std::uint64_t>(seed) * 75353 + n);
  const MixedSpec spec = make_mixed_spec(
      n, 8.0, "zipf", op_rng.bernoulli(0.5) ? "capped" : "stalled-tenth");
  Engine engine(par::ShardedMixedProcess(
      spec, static_cast<std::uint64_t>(seed) * 7 + n,
      par::ShardedOptions{.threads = 2, .shard_size = 64}));
  const FaultSchedule schedule(1 + op_rng.below(4));
  const auto strategy = static_cast<FaultStrategy>(op_rng.below(4));
  Rng fault_rng = op_rng.split();
  auto inject = [&](auto& p) { inject_mixed_fault(p, strategy, fault_rng); };
  std::uint64_t driven = 0;
  std::uint64_t faults = 0;
  for (int op = 0; op < 20; ++op) {
    faults += run_with_faults(engine, op_rng.below(12), schedule, driven,
                              inject);
    ASSERT_NO_THROW(engine.check_invariants()) << "op " << op;
    ASSERT_EQ(engine.process().total_balls() +
                  engine.process().dropped_balls(),
              spec.balls)
        << "op " << op;
  }
  EXPECT_GT(faults, 0u);
}

// Fault -> checkpoint -> resume interleaving: snapshot a mixed process
// mid-run AFTER adversarial faults have fired, restore the snapshot
// into a fresh process, continue both without further faults, and
// demand conservation plus byte-identical final states.  Pins that a
// faulted census round-trips through the durability layer exactly.
TEST_P(FuzzSweep, MixedFaultCheckpointResumeConserves) {
  const auto [n, seed] = GetParam();
  Rng op_rng(static_cast<std::uint64_t>(seed) * 92821 + n);
  const MixedSpec spec = make_mixed_spec(n, 2.0, "bimodal", "capped");
  const std::uint64_t proc_seed = static_cast<std::uint64_t>(seed) * 13 + n;

  Engine engine(par::SequentialCounterMixedProcess(spec, proc_seed));
  const auto strategy = static_cast<FaultStrategy>(op_rng.below(4));
  Rng fault_rng = op_rng.split();
  auto inject = [&](auto& p) { inject_mixed_fault(p, strategy, fault_rng); };
  std::uint64_t driven = 0;
  EXPECT_GT(run_with_faults(engine, 17, FaultSchedule(3), driven, inject),
            0u);

  serial::ByteWriter w;
  engine.process().snapshot(w);

  par::SequentialCounterMixedProcess restored(spec, proc_seed);
  serial::ByteReader r(w.str());
  restored.restore(r);
  ASSERT_TRUE(r.done());
  ASSERT_NO_THROW(restored.check_invariants());
  ASSERT_EQ(restored.total_balls() + restored.dropped_balls(), spec.balls);
  ASSERT_EQ(restored.total_weight(), engine.process().total_weight());

  // Same continuation on both sides -> identical final snapshots.
  engine.run_rounds(23, InvariantCheck{});
  restored.run(23);
  serial::ByteWriter wa;
  engine.process().snapshot(wa);
  serial::ByteWriter wb;
  restored.snapshot(wb);
  EXPECT_EQ(wa.str(), wb.str());
}

// Engine-driven fuzz: random run-lengths with periodic adversarial
// faults, revalidating the incremental max-load / empty-bin bookkeeping
// after *every* round via the InvariantCheck observer.  This exercises
// check_invariants() in exactly the state a faulty run sees (fault
// immediately after observation), which the per-op loops above cannot
// reach.
TEST_P(FuzzSweep, EngineSurvivesRandomRunsUnderFaultInjection) {
  const auto [n, seed] = GetParam();
  Rng op_rng(static_cast<std::uint64_t>(seed) * 2654435761ULL + n);
  // Sequenced so the config draw precedes the process-stream split
  // (function-argument order is unspecified) -- seeds reproduce across
  // compilers.
  LoadConfig start = make_config(InitialConfig::kRandom, n, n, op_rng);
  Engine engine(RepeatedBallsProcess(std::move(start), op_rng.split()));
  const auto strategy = static_cast<FaultStrategy>(op_rng.below(4));
  const FaultSchedule schedule(1 + op_rng.below(7));
  Rng fault_rng = op_rng.split();
  auto inject = [&](RepeatedBallsProcess& p) {
    p.reassign(apply_fault(strategy, p.bin_count(), p.ball_count(),
                           p.loads(), fault_rng));
  };
  std::uint64_t driven = 0;
  std::uint64_t faults = 0;
  for (int op = 0; op < 40; ++op) {
    faults += run_with_faults(engine, op_rng.below(20), schedule, driven,
                              inject);
    ASSERT_NO_THROW(engine.check_invariants()) << "op " << op;
    ASSERT_EQ(total_balls(engine.process().loads()), n) << "op " << op;
  }
  EXPECT_GT(faults, 0u);
}

TEST_P(FuzzSweep, EngineTokenCoreSurvivesFaultInjection) {
  const auto [n, seed] = GetParam();
  Rng op_rng(static_cast<std::uint64_t>(seed) * 40503 + n);
  std::vector<std::uint32_t> placement(n);
  for (std::uint32_t i = 0; i < n; ++i) placement[i] = op_rng.index(n);
  const kernel::TokenOptions options{
      .policy = static_cast<QueuePolicy>(op_rng.below(3))};
  Engine engine(kernel::SequentialTokenProcess(n, std::move(placement),
                                               op_rng.split(), options));
  const auto strategy = static_cast<FaultStrategy>(op_rng.below(4));
  const FaultSchedule schedule(1 + op_rng.below(5));
  Rng fault_rng = op_rng.split();
  auto inject = [&](kernel::SequentialTokenProcess& p) {
    p.reassign(apply_fault_tokens(strategy, p.bin_count(), p.token_count(),
                                  fault_rng));
  };
  std::uint64_t driven = 0;
  for (int op = 0; op < 30; ++op) {
    run_with_faults(engine, op_rng.below(15), schedule, driven, inject);
    ASSERT_NO_THROW(engine.check_invariants()) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, FuzzSweep,
    ::testing::Combine(::testing::Values(8u, 64u, 257u),
                       ::testing::Values(1, 2, 3, 4)));

}  // namespace
}  // namespace rbb

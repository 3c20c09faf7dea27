// Sharded and counter-stream instantiations of the remaining process
// variants (DESIGN.md Sect. 5): Tetris, repeated d-choices, leaky bins.
//
// These are what the policy refactor bought: every variant is the SAME
// core template as the load-only kernel, so porting it to the sharded
// backend is one constructor adapter, not a parallel class hierarchy.
// For each variant the sequential counter-stream sibling is the parity
// oracle (tests/par/ pins trajectories bit-identical across worker
// counts and shard sizes).
//
// Conventions inherited from the kernel layer (core/kernel/):
//   * d-choices draws candidate j of releasing bin u on counter slot
//     (j, u) and places by the batch-snapshot rule -- all choices read
//     the post-departure configuration (variants.hpp documents why).
//   * Tetris / leaky bins draw count-split arrivals
//     (core/kernel/count_split.hpp): the round's fresh count is split
//     over fixed 2^14-bin leaves by conditional binomials and each
//     leaf draws its in-leaf offsets; leaky bins' per-round
//     Binomial(n, lambda) count comes from the round's derived
//     substream, drawn once before any phase.  Deletions (departing
//     balls leaving the system) happen in the departure scan.
#pragma once

#include <cstdint>
#include <utility>

#include "core/config.hpp"
#include "core/kernel/ball_kernel.hpp"
#include "par/sharded_process.hpp"  // ShardedOptions

namespace rbb::par {

/// Tetris at mega n: one round of one instance across all cores.
class ShardedTetrisProcess
    : public kernel::BallProcessCore<kernel::Tetris<kernel::CounterStream>,
                                     kernel::ShardedExecution> {
 public:
  /// `arrivals_per_round` == 0 selects the paper's floor(3n/4).
  /// Count-split arrivals (core/kernel/count_split.hpp).
  explicit ShardedTetrisProcess(LoadConfig initial, std::uint64_t seed,
                                std::uint64_t arrivals_per_round = 0,
                                ShardedOptions options = {})
      : BallProcessCore(std::move(initial),
                        kernel::Tetris<kernel::CounterStream>(
                            kernel::CounterStream(seed), arrivals_per_round),
                        options) {}
};

/// Single-threaded Tetris under the counter stream; the parity oracle
/// for ShardedTetrisProcess.
class SequentialCounterTetrisProcess
    : public kernel::BallProcessCore<kernel::Tetris<kernel::CounterStream>,
                                     kernel::SequentialExecution> {
 public:
  explicit SequentialCounterTetrisProcess(LoadConfig initial,
                                          std::uint64_t seed,
                                          std::uint64_t arrivals_per_round = 0)
      : BallProcessCore(std::move(initial),
                        kernel::Tetris<kernel::CounterStream>(
                            kernel::CounterStream(seed), arrivals_per_round)) {
  }
};

/// Repeated d-choices at mega n (batch-snapshot Greedy[d]).
class ShardedDChoicesProcess
    : public kernel::BallProcessCore<kernel::DChoices<kernel::CounterStream>,
                                     kernel::ShardedExecution> {
 public:
  ShardedDChoicesProcess(LoadConfig initial, std::uint32_t d,
                         std::uint64_t seed, ShardedOptions options = {})
      : BallProcessCore(std::move(initial),
                        kernel::DChoices<kernel::CounterStream>(
                            kernel::CounterStream(seed), d),
                        options) {}
};

/// Single-threaded batch-snapshot Greedy[d] under the counter stream;
/// the parity oracle for ShardedDChoicesProcess.
class SequentialCounterDChoicesProcess
    : public kernel::BallProcessCore<kernel::DChoices<kernel::CounterStream>,
                                     kernel::SequentialExecution> {
 public:
  SequentialCounterDChoicesProcess(LoadConfig initial, std::uint32_t d,
                                   std::uint64_t seed)
      : BallProcessCore(std::move(initial),
                        kernel::DChoices<kernel::CounterStream>(
                            kernel::CounterStream(seed), d)) {}
};

/// Threshold allocation at mega n (batch-snapshot probing; the 1-2-3
/// Toolkit variant).  Probe j of releasing bin u draws on candidate
/// slot (j, u), so the choose phase reuses the d-choices plane family.
class ShardedThresholdProcess
    : public kernel::BallProcessCore<kernel::Threshold<kernel::CounterStream>,
                                     kernel::ShardedExecution> {
 public:
  ShardedThresholdProcess(LoadConfig initial, load_t threshold,
                          std::uint32_t probes, std::uint64_t seed,
                          ShardedOptions options = {})
      : BallProcessCore(std::move(initial),
                        kernel::Threshold<kernel::CounterStream>(
                            kernel::CounterStream(seed), threshold, probes),
                        options) {}
};

/// Single-threaded threshold allocation under the counter stream; the
/// parity oracle for ShardedThresholdProcess.
class SequentialCounterThresholdProcess
    : public kernel::BallProcessCore<kernel::Threshold<kernel::CounterStream>,
                                     kernel::SequentialExecution> {
 public:
  SequentialCounterThresholdProcess(LoadConfig initial, load_t threshold,
                                    std::uint32_t probes, std::uint64_t seed)
      : BallProcessCore(std::move(initial),
                        kernel::Threshold<kernel::CounterStream>(
                            kernel::CounterStream(seed), threshold, probes)) {}
};

/// Leaky bins at mega n.
class ShardedLeakyBinsProcess
    : public kernel::BallProcessCore<kernel::Leaky<kernel::CounterStream>,
                                     kernel::ShardedExecution> {
 public:
  ShardedLeakyBinsProcess(LoadConfig initial, double lambda,
                          std::uint64_t seed, ShardedOptions options = {})
      : BallProcessCore(std::move(initial),
                        kernel::Leaky<kernel::CounterStream>(
                            kernel::CounterStream(seed), lambda),
                        options) {}
};

/// Single-threaded leaky bins under the counter stream; the parity
/// oracle for ShardedLeakyBinsProcess.
class SequentialCounterLeakyBinsProcess
    : public kernel::BallProcessCore<kernel::Leaky<kernel::CounterStream>,
                                     kernel::SequentialExecution> {
 public:
  SequentialCounterLeakyBinsProcess(LoadConfig initial, double lambda,
                                    std::uint64_t seed)
      : BallProcessCore(std::move(initial),
                        kernel::Leaky<kernel::CounterStream>(
                            kernel::CounterStream(seed), lambda)) {}
};

}  // namespace rbb::par

// The repeated balls-into-bins process (paper, Sect. 2) -- load-only kernel.
//
// One round: simultaneously, every non-empty bin releases exactly one ball,
// and each released ball lands in a destination chosen uniformly at random
// (on the complete graph: any of the n bins; on a general graph: a uniform
// neighbor of the releasing bin).  The load vector evolves as
//
//   Q^{t+1}_v = max(Q^t_v - 1, 0) + #{ u in W^t : X^{t+1}_u = v }
//
// where W^t is the set of non-empty bins.  Because Theorem 1 is oblivious
// to the queueing strategy, this kernel tracks *loads only* and is the
// fastest representation (ablation D2); use the token core
// (core/kernel/token_kernel.hpp) when per-ball identities (progress,
// cover time, FIFO order) are needed.
//
// Since the policy refactor (DESIGN.md Sect. 5), RepeatedBallsProcess is a
// thin constructor adapter over the process core: the LoadOnly variant on
// the sequential xoshiro stream with in-place execution, draw-for-draw
// identical to the historical hand-written kernel.  The counter-stream and
// sharded instantiations of the same core live in src/par/.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "core/kernel/ball_kernel.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace rbb {

/// Load-only repeated balls-into-bins simulator (sequential xoshiro
/// instantiation of the process core).
class RepeatedBallsProcess
    : public kernel::BallProcessCore<kernel::LoadOnly<kernel::SequentialStream>,
                                     kernel::SequentialExecution> {
 public:
  /// Starts from an explicit configuration on the complete graph K_n.
  RepeatedBallsProcess(LoadConfig initial, Rng rng)
      : RepeatedBallsProcess(std::move(initial), nullptr, rng) {}

  /// Starts from an explicit configuration on a general graph; `graph`
  /// must outlive the process and have min degree >= 1.  Balls released by
  /// bin u land on a uniform random neighbor of u.
  RepeatedBallsProcess(LoadConfig initial, const Graph* graph, Rng rng)
      : BallProcessCore(std::move(initial),
                        kernel::LoadOnly<kernel::SequentialStream>(
                            kernel::SequentialStream(rng), graph)) {}
};

}  // namespace rbb

// The Tetris process (paper, Sect. 3.1) and its instrumentation.
//
// Tetris is the analysis-friendly auxiliary process: starting from a
// configuration with at least n/4 empty bins, in every round
//   (1) every non-empty bin discards one ball, and
//   (2) exactly floor(3n/4) fresh balls are thrown i.i.d. u.a.r.
// Arrivals are independent across rounds -- the property the original
// process lacks (Appendix B) -- which makes Chernoff bounds applicable.
// Lemma 3 couples Tetris to the original process so that Tetris's maximum
// load dominates w.h.p.; Lemma 4 shows every bin empties within 5n rounds
// from any start; Lemma 6 gives the O(log n) stability window.
//
// The arrivals-per-round count is a parameter; the tetris_stability
// experiment's critical-drift sweep (arrivals = mu * n for mu -> 1)
// shows why 3/4 works.
//
// Since the policy refactor (DESIGN.md Sect. 5), TetrisProcess is a thin
// constructor adapter over the process core (Tetris variant, sequential
// xoshiro stream, in-place execution); the counter-stream and sharded
// instantiations live in src/par/.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "core/kernel/ball_kernel.hpp"
#include "support/rng.hpp"

namespace rbb {

/// The Tetris repeated balls-into-bins process (sequential xoshiro
/// instantiation of the process core).
class TetrisProcess
    : public kernel::BallProcessCore<kernel::Tetris<kernel::SequentialStream>,
                                     kernel::SequentialExecution> {
 public:
  /// `arrivals_per_round` == 0 selects the paper's floor(3n/4).
  TetrisProcess(LoadConfig initial, Rng rng,
                std::uint64_t arrivals_per_round = 0)
      : BallProcessCore(std::move(initial),
                        kernel::Tetris<kernel::SequentialStream>(
                            kernel::SequentialStream(rng),
                            arrivals_per_round)) {}
};

}  // namespace rbb

// Stopping rules for Engine::run (DESIGN.md Sect. 2).
//
// A stopping rule is a predicate `rule(process, rounds_done) -> bool`
// evaluated on the *current* state before each round; returning true ends
// the run with goal_reached = true.  The round budget (`max_rounds`) is a
// separate engine parameter so every goal-directed rule composes with a
// cap -- EngineResult::goal_reached distinguishes convergence from
// timeout.  Rules are plain structs; ad-hoc lambdas with the same
// signature work too.
#pragma once

#include <concepts>
#include <cstdint>

namespace rbb {

/// Never stops early: run exactly the engine's round budget (fixed-rounds
/// observation windows).
struct RunForRounds {
  template <typename P>
  [[nodiscard]] bool operator()(const P&, std::uint64_t) const noexcept {
    return false;
  }
};

/// Stops when the configuration is legitimate: M(q) <= threshold, with
/// threshold = beta * log2(n) (Theorem 1's convergence target).
struct UntilLegitimate {
  double threshold = 0.0;

  template <typename P>
  [[nodiscard]] bool operator()(const P& p, std::uint64_t) const {
    return static_cast<double>(p.max_load()) <= threshold;
  }
};

/// Stops once every bin has been empty at least once (the Lemma 4 drain
/// event; Tetris exposes the round bookkeeping).
struct UntilAllEmptiedOnce {
  template <typename P>
    requires requires(const P& p) {
      { p.all_emptied_once() } -> std::convertible_to<bool>;
    }
  [[nodiscard]] bool operator()(const P& p, std::uint64_t) const {
    return p.all_emptied_once();
  }
};

}  // namespace rbb

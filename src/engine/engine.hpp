// The unified simulation engine: one round loop for every process
// variant (DESIGN.md Sect. 2).
//
// Engine<P> owns a process and drives it round by round, weaving in three
// orthogonal, compile-time-composed concerns:
//
//   * a stopping rule   (engine/stop.hpp)      -- evaluated pre-round on
//     the current state, plus a hard round budget,
//   * a fault plan      (engine/faults.hpp)    -- adversarial
//     reassignments on their own RNG stream, post-round,
//   * metric observers  (engine/observers.hpp) -- any number, invoked
//     with a lazy end-of-round view.
//
// Everything is a template parameter, so a run with no observers and no
// faults compiles to exactly the bare `for (...) p.step();` loop the
// per-process run() methods contain -- the parity regression test in
// tests/engine/ verifies bit-identical trajectories, and perfbench's
// engine.observer_overhead_frac (mc_claims) tracks the overhead.
// Monte-Carlo parallelism lives one level up, in engine/trials.hpp.
#pragma once

#include <cstdint>
#include <utility>

#include "engine/faults.hpp"
#include "engine/observers.hpp"
#include "engine/process.hpp"
#include "engine/stop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rbb {

/// Outcome of one Engine::run call.
struct EngineResult {
  std::uint64_t rounds = 0;           // process rounds executed
  std::uint64_t faults_injected = 0;  // faulty (non-process) rounds
  bool goal_reached = false;          // stopping rule fired (vs budget)
};

template <SimProcess P>
class Engine {
 public:
  explicit Engine(P process) : process_(std::move(process)) {}

  /// \brief Runs until the stopping rule fires or the round budget is
  /// exhausted, whichever comes first.
  ///
  /// The rule sees the state *before* each round, so a run from an
  /// already-satisfying state executes zero rounds.  Per executed round:
  /// step, observers (in argument order, over one shared lazy
  /// RoundContext), then the fault plan.
  ///
  /// \tparam Stop      predicate `(const P&, rounds_done) -> bool`
  ///                   (engine/stop.hpp); true ends the run as a goal
  /// \tparam Faults    fault plan with `maybe_inject(P&, round) -> bool`
  ///                   (engine/faults.hpp); NoFaults{} for none
  /// \tparam Observers any number of types with
  ///                   `observe(const RoundContext<P>&)`
  ///                   (engine/observers.hpp)
  /// \param max_rounds hard budget of process rounds for this call
  /// \return rounds executed, faults injected, and whether the goal
  ///         (vs the budget) ended the run
  template <typename Stop, typename Faults, typename... Observers>
  EngineResult run(std::uint64_t max_rounds, Stop&& until, Faults&& faults,
                   Observers&&... observers) {
    EngineResult result;
    for (;;) {
      if (until(std::as_const(process_), result.rounds)) {
        result.goal_reached = true;
        break;
      }
      if (result.rounds >= max_rounds) break;
      {
        const obs::ScopedPhase round_span(obs::Phase::kRound);
        engine_step(process_);
      }
      ++result.rounds;
      ++driven_;
      if constexpr (sizeof...(Observers) > 0) {
        const RoundContext<P> ctx(process_, result.rounds);
        (observers.observe(ctx), ...);
      }
      if (faults.maybe_inject(process_, driven_)) {
        ++result.faults_injected;
        obs::add(obs::Counter::kFaultsInjected);
      }
    }
    return result;
  }

  /// Fixed observation window: exactly `rounds` rounds, no faults.
  template <typename... Observers>
  EngineResult run_rounds(std::uint64_t rounds, Observers&&... observers) {
    return run(rounds, RunForRounds{}, NoFaults{},
               std::forward<Observers>(observers)...);
  }

  [[nodiscard]] P& process() noexcept { return process_; }
  [[nodiscard]] const P& process() const noexcept { return process_; }
  /// Total process rounds driven across all run calls on this engine.
  [[nodiscard]] std::uint64_t rounds_driven() const noexcept {
    return driven_;
  }
  /// Revalidates the process's incremental bookkeeping (testing hook).
  void check_invariants() const { engine_check_invariants(process_); }

 private:
  P process_;
  std::uint64_t driven_ = 0;
};

}  // namespace rbb

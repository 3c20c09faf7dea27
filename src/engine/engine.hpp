// The unified simulation engine: one round loop for every process
// variant (DESIGN.md Sect. 2).
//
// Engine<P> owns a process and drives it round by round through its own
// members, weaving in two orthogonal, compile-time-composed concerns:
//
//   * a stopping rule   (engine/stop.hpp)      -- evaluated pre-round on
//     the current state, plus a hard round budget,
//   * metric observers  (engine/observers.hpp) -- any number, invoked
//     with a lazy end-of-round view.
//
// Everything is a template parameter, so a run with no observers
// compiles to exactly the bare `for (...) p.step();` loop the
// per-process run() methods contain -- the parity regression test in
// tests/engine/ verifies bit-identical trajectories, and perfbench's
// engine.observer_overhead_frac (mc_claims) tracks the overhead.
// Adversarial faults (core/faults) are injected by their drivers
// between runs.  Monte-Carlo parallelism lives one level up, in
// engine/trials.hpp.
#pragma once

#include <concepts>
#include <cstdint>
#include <utility>

#include "engine/observers.hpp"
#include "engine/stop.hpp"
#include "obs/trace.hpp"

namespace rbb {

/// \brief A simulatable process: anything the Engine's round loop and
/// RoundContext can drive.
///
/// `step()` advances one synchronous round (its return value, if any,
/// is discarded); `bin_count()` is the constant number of bins (nodes,
/// stations, queues); `max_load()` is M(q) of the current configuration
/// and `empty_bins()` its empty-bin count.  Optional members are probed
/// where they are used: `check_invariants()` (Engine::check_invariants,
/// InvariantCheck) and the ones specific stopping rules and observers
/// read (`all_emptied_once()`, `total_balls()`, ...).  Randomness must
/// come from the process's own Rng stream, so faults injected between
/// runs (which draw from a separate stream) never perturb trajectories.
template <typename P>
concept SimProcess = requires(P& p, const P& cp) {
  p.step();
  { cp.bin_count() } -> std::convertible_to<std::uint32_t>;
  { cp.max_load() } -> std::convertible_to<std::uint32_t>;
  { cp.empty_bins() } -> std::convertible_to<std::uint32_t>;
};

/// Outcome of one Engine::run call.
struct EngineResult {
  std::uint64_t rounds = 0;    // process rounds executed
  bool goal_reached = false;   // stopping rule fired (vs budget)
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
  /// step, then the observers (in argument order, over one shared lazy
  /// RoundContext).
  ///
  /// \tparam Stop      predicate `(const P&, rounds_done) -> bool`
  ///                   (engine/stop.hpp); true ends the run as a goal
  /// \tparam Observers any number of types with
  ///                   `observe(const RoundContext<P>&)`
  ///                   (engine/observers.hpp)
  /// \param max_rounds hard budget of process rounds for this call
  /// \return rounds executed and whether the goal (vs the budget) ended
  ///         the run
  template <typename Stop, typename... Observers>
  EngineResult run(std::uint64_t max_rounds, Stop&& until,
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
        process_.step();
      }
      ++result.rounds;
      if constexpr (sizeof...(Observers) > 0) {
        const RoundContext<P> ctx(process_, result.rounds);
        (observers.observe(ctx), ...);
      }
    }
    return result;
  }

  /// Fixed observation window: exactly `rounds` rounds.
  template <typename... Observers>
  EngineResult run_rounds(std::uint64_t rounds, Observers&&... observers) {
    return run(rounds, RunForRounds{},
               std::forward<Observers>(observers)...);
  }

  [[nodiscard]] P& process() noexcept { return process_; }
  [[nodiscard]] const P& process() const noexcept { return process_; }
  /// Revalidates the process's incremental bookkeeping (throws
  /// std::logic_error on drift); a no-op for processes without a checker.
  void check_invariants() const {
    if constexpr (requires { process_.check_invariants(); }) {
      process_.check_invariants();
    }
  }

 private:
  P process_;
};

}  // namespace rbb

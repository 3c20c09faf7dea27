// The Process interface of the simulation engine (DESIGN.md Sect. 2).
//
// Every process variant in this repository -- the load-only kernel, the
// identity-tracking token process, Tetris, leaky bins, d-choices,
// independent walks and Israeli-Jalfon -- advances in synchronous rounds
// and exposes a load-shaped view of its state.  The engine drives them
// through a small set of free-function customization points instead of a
// virtual base class, so that Engine<P>::run() compiles down to the same
// loop the hand-rolled per-process drivers used to contain (the parity
// regression test in tests/engine/ pins this down bit-for-bit).
//
// Generic overloads cover any type with the conventional member surface
// (step / round / bin_count / max_load / empty_bins / loads /
// check_invariants); Israeli-Jalfon, whose state is token presence per
// node rather than a LoadConfig, gets explicit overloads below.
#pragma once

#include <concepts>
#include <cstdint>

#include "core/config.hpp"
#include "selfstab/israeli_jalfon.hpp"

namespace rbb {

// --- step -------------------------------------------------------------------

/// \brief Executes one synchronous round of the process.
///
/// Customization point: the generic overload forwards to a `step()`
/// member; a process without that member provides its own overload
/// (found by ADL) instead.  Return values (per-process round stats) are
/// intentionally discarded: observers read end-of-round state through
/// the customization points below, which is equivalent and keeps the
/// interface uniform.
///
/// \tparam P any type with a `step()` member (or an overload of its own)
template <typename P>
  requires requires(P& p) { p.step(); }
void engine_step(P& p) {
  p.step();
}

// --- identity ---------------------------------------------------------------

/// \brief Number of bins (equivalently: nodes, stations, queues).
///
/// Constant over a run; observers use it to normalize per-bin metrics
/// (e.g. the empty-bin *fraction*).
template <typename P>
  requires requires(const P& p) {
    { p.bin_count() } -> std::convertible_to<std::uint32_t>;
  }
[[nodiscard]] std::uint32_t engine_bin_count(const P& p) {
  return p.bin_count();
}

/// Israeli-Jalfon has nodes rather than bins.
[[nodiscard]] inline std::uint32_t engine_bin_count(
    const IsraeliJalfonProcess& p) {
  return p.node_count();
}

/// \brief Rounds executed since the process was constructed.
///
/// Monotone; the engine tracks its own per-run round count, so this is
/// only consulted by observers that want absolute process time.
template <typename P>
  requires requires(const P& p) {
    { p.round() } -> std::convertible_to<std::uint64_t>;
  }
[[nodiscard]] std::uint64_t engine_round(const P& p) {
  return p.round();
}

// --- load-shaped state ------------------------------------------------------

/// \brief Maximum load M(q) of the current configuration.
///
/// The paper's central observable (legitimacy is M(q) <= beta log2 n).
/// Expected O(1) for processes with incremental bookkeeping (the
/// load-only kernel, Tetris); may be O(n) for token-carrying variants --
/// which is why observers reach it through the lazy, memoized
/// RoundContext rather than calling it unconditionally.
template <typename P>
  requires requires(const P& p) {
    { p.max_load() } -> std::convertible_to<std::uint32_t>;
  }
[[nodiscard]] std::uint32_t engine_max_load(const P& p) {
  return p.max_load();
}

/// Israeli-Jalfon state is a token-presence indicator per node (merging
/// caps every "load" at 1), so the maximum load is 1 whenever any token
/// survives -- which the constructor guarantees.
[[nodiscard]] inline std::uint32_t engine_max_load(
    const IsraeliJalfonProcess& p) {
  return p.token_count() > 0 ? 1u : 0u;
}

/// \brief Number of empty bins in the current configuration.
///
/// Drives the Lemma-1 floor observable (empty fraction >= 1/4).  Same
/// cost caveat as engine_max_load.
template <typename P>
  requires requires(const P& p) {
    { p.empty_bins() } -> std::convertible_to<std::uint32_t>;
  }
[[nodiscard]] std::uint32_t engine_empty_bins(const P& p) {
  return p.empty_bins();
}

[[nodiscard]] inline std::uint32_t engine_empty_bins(
    const IsraeliJalfonProcess& p) {
  return p.node_count() - p.token_count();
}

/// Snapshot of the per-bin load vector.  Returns by value: the engine
/// only calls this off the hot path (sampling observers, parity checks).
template <typename P>
  requires requires(const P& p) {
    { p.loads() } -> std::convertible_to<LoadConfig>;
  }
[[nodiscard]] LoadConfig engine_loads(const P& p) {
  return p.loads();
}

[[nodiscard]] inline LoadConfig engine_loads(const IsraeliJalfonProcess& p) {
  const auto& tokens = p.tokens();
  return {tokens.begin(), tokens.end()};
}

// --- invariants -------------------------------------------------------------

/// Revalidates the process's incremental bookkeeping (throws
/// std::logic_error on drift); a no-op for processes without a checker.
template <typename P>
void engine_check_invariants(const P& p) {
  if constexpr (requires { p.check_invariants(); }) {
    p.check_invariants();
  }
}

// --- the concept ------------------------------------------------------------

/// \brief A simulatable process: anything the Engine's round loop can
/// drive.
///
/// This names the full contract that was previously only prose in
/// DESIGN.md Sect. 2.  To plug a new process variant (a sharded
/// backend, an async queue, a new arrival law) into every driver,
/// observer, and fault schedule in the repository, provide:
///
///   * `engine_step(p)`        -- advance one synchronous round,
///   * `engine_bin_count(cp)`  -- number of bins/nodes (constant),
///   * `engine_round(cp)`      -- rounds since construction,
///   * `engine_max_load(cp)`   -- M(q) of the current configuration,
///   * `engine_empty_bins(cp)` -- empty-bin count,
///   * `engine_loads(cp)`      -- per-bin load snapshot (off hot path),
///
/// either via the conventional member surface (the generic overloads
/// above pick it up automatically) or as free-function overloads found
/// by ADL.  Optionally add `check_invariants()` (revalidated by
/// engine_check_invariants under fuzzing) and the members specific
/// stopping rules probe (`all_emptied_once()`, `all_covered()`, ...).
/// Randomness must come from the process's own Rng stream so that fault
/// plans (which draw from a separate stream) never perturb
/// trajectories -- the determinism contract design choice D5 and the
/// parity tests rely on.
template <typename P>
concept SimProcess = requires(P& p, const P& cp) {
  engine_step(p);
  { engine_bin_count(cp) } -> std::convertible_to<std::uint32_t>;
  { engine_round(cp) } -> std::convertible_to<std::uint64_t>;
  { engine_max_load(cp) } -> std::convertible_to<std::uint32_t>;
  { engine_empty_bins(cp) } -> std::convertible_to<std::uint32_t>;
  { engine_loads(cp) } -> std::convertible_to<LoadConfig>;
};

}  // namespace rbb

// Multi-token traversal (paper, Sect. 4) on top of the sequential token
// core (core/kernel/token_kernel.hpp).
//
// n tokens -- one per node initially, or adversarially placed -- perform
// the random-walk protocol with the one-token-per-node-per-round
// constraint.  Corollary 1: on the complete graph the (global) cover time
// is O(n log^2 n) w.h.p., a log n slowdown over the single-walker coupon
// collector O(n log n).  Sect. 4.1: an adversary reassigning all tokens
// every gamma*n rounds (gamma >= 6) costs only a constant factor.
#pragma once

#include <cstdint>
#include <optional>

#include "core/faults.hpp"
#include "core/token_process.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace rbb {

/// Outcome of one traversal run.
struct TraversalResult {
  /// Rounds until every token visited every node; nullopt if the cap hit.
  std::optional<std::uint64_t> cover_time;
  /// Earliest / latest single-token cover round (valid when covered).
  std::uint64_t first_token_covered = 0;
  std::uint64_t last_token_covered = 0;
  /// Maximum queue length observed at any sampled round.
  std::uint32_t max_load_seen = 0;
  /// Minimum per-token progress (walk steps) at the end of the run.
  std::uint64_t min_progress = 0;
  std::uint64_t rounds_run = 0;
};

/// Parameters of a traversal experiment.
struct TraversalParams {
  std::uint32_t n = 0;                      // nodes; tokens = n
  QueuePolicy policy = QueuePolicy::kFifo;
  const Graph* graph = nullptr;             // nullptr = complete graph
  std::uint64_t max_rounds = 0;             // 0 = 64 * n * log2(n)^2
  InitialConfig placement = InitialConfig::kOnePerBin;
  /// Fault injection (Sect. 4.1): period 0 disables.
  std::uint64_t fault_period = 0;
  FaultStrategy fault_strategy = FaultStrategy::kAllToOne;
};

/// Runs one multi-token traversal; deterministic given `seed`.
[[nodiscard]] TraversalResult run_traversal(const TraversalParams& params,
                                            std::uint64_t seed);

/// Initial token placement for a traversal: maps the InitialConfig load
/// families onto token positions (token i -> bin).
[[nodiscard]] std::vector<std::uint32_t> make_token_placement(
    InitialConfig placement, std::uint32_t bins, std::uint32_t tokens,
    Rng& rng);

}  // namespace rbb

// Mixed-regime scenario descriptions: m != n ball counts, weighted
// balls, heterogeneous bins.
//
// Los & Sauerwald ("Tight Bounds for Repeated Balls-into-Bins")
// analyze the general m = c * n process and prove sharply different
// max-load behavior across regimes; the production analogue adds hot
// keys (balls of unequal weight) and unequal servers (bins with
// per-round service rates and finite capacities).  This module is the
// declarative half of the mixed-regime engine: named weight and bin
// profiles, parsed from CLI strings, materialized into the dense
// per-bin vectors the kernel consumes (core/kernel/mixed_kernel.hpp).
//
// Everything here is DETERMINISTIC in (n, ratio, profile names): the
// spec is part of the experiment identity, so two runs with the same
// parameters start from bit-identical state on every backend.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace rbb {

/// A small table of ball weight classes: class c carries integer
/// weight `class_weights[c]` and holds `fractions[c]` of the m balls.
/// Invariants: non-empty, weights >= 1, fractions > 0 summing to ~1.
struct WeightProfile {
  std::string name;
  std::vector<weight_t> class_weights;
  std::vector<double> fractions;
};

/// Named weight profiles:
///   unit     -- one class of weight 1 (the classical process)
///   bimodal  -- 90% weight-1 balls, 10% weight-8 "hot" balls
///   zipf     -- weights {1, 2, 4, 8} with geometrically decaying
///               shares {8/15, 4/15, 2/15, 1/15}
[[nodiscard]] WeightProfile weight_profile_from_string(const std::string& s);

/// Comma-joined list of the recognized weight profile names.
[[nodiscard]] std::string weight_profile_names();

/// Named bin (server) profiles:
///   uniform        -- rate 1, unbounded capacity: the paper's bins
///   two-speed      -- odd bins drain 4 balls per round, even bins 1
///   stalled-tenth  -- every 10th bin has rate 0 (never releases)
///   capped         -- rate 1, capacity 2 * ceil(m/n) + 2: arrivals
///                     beyond the cap are dropped (counted, not lost
///                     silently)
enum class BinProfileKind { kUniform, kTwoSpeed, kStalledTenth, kCapped };

[[nodiscard]] BinProfileKind bin_profile_from_string(const std::string& s);
[[nodiscard]] const char* to_string(BinProfileKind kind);

/// Comma-joined list of the recognized bin profile names.
[[nodiscard]] std::string bin_profile_names();

/// A fully materialized mixed-regime scenario: what the mixed kernel
/// is constructed from.
struct MixedSpec {
  std::uint32_t bins = 0;
  ball_count_t balls = 0;
  WeightProfile weights;
  /// Balls bin u releases per round: min(load_u, rates[u]).  0 = the
  /// bin never releases.  Validated < 2^16 (the departure-index field
  /// of the mixed counter slots).
  std::vector<std::uint32_t> rates;
  /// Per-bin ball capacity; 0 = unbounded.  Arrivals to a full bin
  /// are dropped and counted.
  std::vector<load_t> capacities;
  /// Initial per-bin per-class ball counts, bin-major:
  /// class_counts[u * k + c] with k = weights.class_weights.size().
  std::vector<load_t> class_counts;
};

/// Builds the deterministic mixed-regime scenario: m = round(ratio * n)
/// balls, class populations by largest-remainder apportionment of the
/// profile fractions, balls dealt round-robin over the bins (so every
/// initial load is floor(m/n) or ceil(m/n), under any capacity).
/// Throws std::invalid_argument on n == 0, ratio <= 0, an m above the
/// 32-bit range, or unknown profile names.
[[nodiscard]] MixedSpec make_mixed_spec(std::uint32_t bins, double ball_ratio,
                                        const std::string& weight_profile,
                                        const std::string& bin_profile);

/// As above with explicit profile values (tests / fuzzing).
[[nodiscard]] MixedSpec make_mixed_spec(std::uint32_t bins, double ball_ratio,
                                        WeightProfile weights,
                                        BinProfileKind bins_kind);

}  // namespace rbb

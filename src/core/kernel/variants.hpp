// Process-variant policies of the process core (DESIGN.md Sect. 5).
//
// The per-round *semantics* axis of the policy matrix: what a departure
// means, where arrivals come from, and which extra bookkeeping the
// variant maintains.  Each variant carries its RNG stream policy
// (stream.hpp) as a template parameter, so one variant type fully
// determines the randomness contract; the execution policy (exec.hpp)
// stays orthogonal and is chosen at the BallProcessCore instantiation.
//
// Two arrival shapes exist:
//   * relaunch (LoadOnly, DChoices) -- every departing ball is thrown
//     back; the ball count is conserved.
//   * refill (Tetris, Leaky) -- departing balls leave the system and an
//     independent batch of fresh balls arrives each round.
//
// The members of these structs are the kernel's working state; they are
// public for BallProcessCore, not part of the public process API (the
// core re-exposes the user-facing accessors with requires-clauses).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/kernel/stream.hpp"
#include "graph/graph.hpp"
#include "support/samplers.hpp"
#include "support/types.hpp"

namespace rbb {

/// Statistics of the configuration at the *end* of a round (the paper's
/// process and every ball-conserving variant).
struct RoundStats {
  std::uint32_t max_load = 0;
  std::uint32_t empty_bins = 0;
  std::uint32_t departures = 0;  // |W^t| of the round just executed
};

/// Per-round statistics of the Tetris process (end-of-round state).
struct TetrisRoundStats {
  std::uint32_t max_load = 0;
  std::uint32_t empty_bins = 0;
  ball_count_t total_balls = 0;  // Tetris does not conserve ball count
};

/// Per-round statistics of the leaky-bins process.
struct LeakyRoundStats {
  std::uint32_t max_load = 0;
  std::uint32_t empty_bins = 0;
  ball_count_t total_balls = 0;
  ball_count_t arrivals = 0;  // this round's Binomial(n, lambda) draw
};

namespace kernel {

enum class BallVariantKind {
  kLoadOnly,
  kDChoices,
  kThreshold,
  kTetris,
  kLeaky,
};

/// The paper's process: every departure is re-thrown u.a.r. (complete
/// graph) or to a uniform neighbor (general graph; sequential stream
/// only -- neighbor sampling needs a serial generator).
template <typename StreamP>
struct LoadOnly {
  using Stream = StreamP;
  using Stats = RoundStats;
  static constexpr BallVariantKind kKind = BallVariantKind::kLoadOnly;
  static constexpr bool kConservesBalls = true;

  explicit LoadOnly(Stream stream, const Graph* graph = nullptr)
      : stream_(std::move(stream)), graph_(graph) {}

  void validate(std::uint32_t n) const {
    validate_graph<Stream>(graph_, n, "RepeatedBallsProcess");
  }
  void init(const std::vector<load_t>& /*loads*/) {}

  static Stats make_stats(std::uint32_t max, std::uint32_t empty,
                          std::uint32_t departures, ball_count_t /*balls*/,
                          ball_count_t /*arrivals*/) {
    return Stats{max, empty, departures};
  }

  Stream stream_;
  const Graph* graph_;
};

/// Repeated d-choices ([36]): a released ball samples d candidate bins
/// and joins the least loaded.
///
/// Placement convention (documented because [36] leaves the intra-round
/// rule unspecified):
///   * sequential stream -- classic Greedy[d]: balls are placed one by
///     one in releasing-bin order and each placement sees the arrivals
///     before it (the historical RepeatedDChoicesProcess behavior).
///   * schedule-free stream -- batch-snapshot Greedy[d]: every choice
///     reads the post-departure configuration and all placements commit
///     afterwards.  This is the convention a parallel round can realize
///     without serializing on the load vector, and it matches the
///     batched setting of Berenbrink et al. (PODC 2016): decisions made
///     on information that is one batch stale.
template <typename StreamP>
struct DChoices {
  using Stream = StreamP;
  using Stats = RoundStats;
  static constexpr BallVariantKind kKind = BallVariantKind::kDChoices;
  static constexpr bool kConservesBalls = true;

  DChoices(Stream stream, std::uint32_t d)
      : stream_(std::move(stream)), d_(d) {}

  void validate(std::uint32_t /*n*/) const {
    if (d_ == 0) {
      throw std::invalid_argument("RepeatedDChoicesProcess: d == 0");
    }
    if (d_ >= (1u << 16)) {
      throw std::invalid_argument(
          "RepeatedDChoicesProcess: d exceeds the candidate slot space");
    }
  }
  void init(const std::vector<load_t>& /*loads*/) {}

  /// Online placement (sequential stream): the least loaded of d
  /// candidates drawn one by one; ties keep the earlier draw.
  template <typename S = Stream>
    requires(!S::kScheduleFree)
  [[nodiscard]] bin_index_t choose_one(
      Rng& rng, std::uint32_t n, const std::vector<load_t>& loads) const {
    bin_index_t best = rng.index(n);
    for (std::uint32_t j = 1; j < d_; ++j) {
      const bin_index_t c = rng.index(n);
      if (loads[c] < loads[best]) best = c;
    }
    return best;
  }

  /// Batch-snapshot choices for `m` released balls (releasers[i] = the
  /// releasing bin): per candidate index j, one gathered draw plane on
  /// slots (j, u) materializes every ball's j-th candidate at once --
  /// the same (round, slot) draws the historical per-ball loop made,
  /// in candidate-major order.  Least loaded wins, ties keep the
  /// earlier draw.  `best` and `cand` are caller-provided buffers of
  /// `m` entries.  Reads `loads` only -- callable concurrently from any
  /// worker once the post-departure configuration is stable.
  template <typename S = Stream>
    requires S::kScheduleFree
  void choose_batch(std::uint64_t round, const bin_index_t* releasers,
                    std::uint32_t m, std::uint32_t n,
                    const std::vector<load_t>& loads, bin_index_t* best,
                    bin_index_t* cand) const {
    stream_.fill_gather(round, releasers, 0, m, n, best);
    for (std::uint32_t j = 1; j < d_; ++j) {
      stream_.fill_gather(round, releasers, j, m, n, cand);
      for (std::uint32_t i = 0; i < m; ++i) {
        if (loads[cand[i]] < loads[best[i]]) best[i] = cand[i];
      }
    }
  }

  static Stats make_stats(std::uint32_t max, std::uint32_t empty,
                          std::uint32_t departures, ball_count_t /*balls*/,
                          ball_count_t /*arrivals*/) {
    return Stats{max, empty, departures};
  }

  Stream stream_;
  std::uint32_t d_;
};

/// Threshold allocation (Bertrand & Lenzen, "The 1-2-3 Toolkit"): a
/// released ball probes up to `probes_` uniform candidate bins in
/// sequence and joins the FIRST one whose load is at most `threshold_`;
/// if no probe qualifies, the ball settles in the last bin probed.
/// Unlike Greedy[d] the rule is adaptive -- a lightly loaded first
/// probe ends the search -- which is exactly the allocation shape the
/// toolkit's low-message protocols realize.
///
/// Placement convention mirrors DChoices: the sequential stream places
/// balls online (each probe sees the arrivals before it), the
/// schedule-free stream reads the post-departure snapshot for every
/// probe and commits all placements afterwards.  Probe j of releasing
/// bin u draws on candidate slot (j, u), the same plane family as
/// d-choices, so the sharded backend needs no new slot range.
template <typename StreamP>
struct Threshold {
  using Stream = StreamP;
  using Stats = RoundStats;
  static constexpr BallVariantKind kKind = BallVariantKind::kThreshold;
  static constexpr bool kConservesBalls = true;

  Threshold(Stream stream, load_t threshold, std::uint32_t probes = 2)
      : stream_(std::move(stream)), threshold_(threshold), probes_(probes) {}

  void validate(std::uint32_t /*n*/) const {
    if (probes_ == 0) {
      throw std::invalid_argument("Threshold: probes == 0");
    }
    if (probes_ >= (1u << 16)) {
      throw std::invalid_argument(
          "Threshold: probes exceeds the candidate slot space");
    }
  }
  void init(const std::vector<load_t>& /*loads*/) {}

  /// Online placement (sequential stream): draws probes one by one and
  /// stops at the first bin at or below the threshold.
  template <typename S = Stream>
    requires(!S::kScheduleFree)
  [[nodiscard]] bin_index_t choose_one(
      Rng& rng, std::uint32_t n, const std::vector<load_t>& loads) const {
    bin_index_t best = rng.index(n);
    for (std::uint32_t j = 1; j < probes_ && loads[best] > threshold_; ++j) {
      best = rng.index(n);
    }
    return best;
  }

  /// Batch-snapshot placement for `m` released balls, one gathered draw
  /// plane per probe index.  A ball whose current `best` already
  /// qualifies keeps it; otherwise the next probe replaces it -- after
  /// the last plane, `best[i]` is the first qualifying probe or the
  /// final one.  Every plane is materialized for every ball (the
  /// counter draws are pure functions, so unconsumed values cost
  /// nothing semantically), which keeps the draw set independent of the
  /// chunking and hence bit-identical across workers and shard sizes.
  template <typename S = Stream>
    requires S::kScheduleFree
  void choose_batch(std::uint64_t round, const bin_index_t* releasers,
                    std::uint32_t m, std::uint32_t n,
                    const std::vector<load_t>& loads, bin_index_t* best,
                    bin_index_t* cand) const {
    stream_.fill_gather(round, releasers, 0, m, n, best);
    for (std::uint32_t j = 1; j < probes_; ++j) {
      stream_.fill_gather(round, releasers, j, m, n, cand);
      for (std::uint32_t i = 0; i < m; ++i) {
        if (loads[best[i]] > threshold_) best[i] = cand[i];
      }
    }
  }

  static Stats make_stats(std::uint32_t max, std::uint32_t empty,
                          std::uint32_t departures, ball_count_t /*balls*/,
                          ball_count_t /*arrivals*/) {
    return Stats{max, empty, departures};
  }

  Stream stream_;
  load_t threshold_;
  std::uint32_t probes_;
};

/// The Tetris process (paper, Sect. 3.1): every non-empty bin discards
/// one ball, then exactly `arrivals_` fresh balls are thrown i.i.d.
/// u.a.r.  Tracks the first round each bin was empty (Lemma 4).
template <typename StreamP>
struct Tetris {
  using Stream = StreamP;
  using Stats = TetrisRoundStats;
  static constexpr BallVariantKind kKind = BallVariantKind::kTetris;
  static constexpr bool kConservesBalls = false;

  static constexpr std::uint64_t kNeverEmptied =
      std::numeric_limits<std::uint64_t>::max();

  /// `arrivals_per_round` == 0 selects the paper's floor(3n/4).
  Tetris(Stream stream, ball_count_t arrivals_per_round = 0)
      : stream_(std::move(stream)), arrivals_(arrivals_per_round) {}

  void validate(std::uint32_t /*n*/) const {
    if constexpr (Stream::kScheduleFree) {
      if (arrivals_ > std::numeric_limits<std::uint32_t>::max()) {
        throw std::invalid_argument(
            "Tetris: arrivals per round exceed the 32-bit leaf-draw "
            "index of the counter stream");
      }
    }
  }
  void init(const std::vector<load_t>& loads) {
    if (arrivals_ == 0) arrivals_ = loads.size() * 3 / 4;
    first_empty_.assign(loads.size(), kNeverEmptied);
    for (std::uint32_t u = 0; u < loads.size(); ++u) {
      if (loads[u] == 0) first_empty_[u] = 0;
    }
    not_yet_emptied_ = never_emptied();
  }

  /// Bins whose first_empty_ is still unset (recounted, O(n)).
  [[nodiscard]] std::uint32_t never_emptied() const {
    return static_cast<std::uint32_t>(
        std::count(first_empty_.begin(), first_empty_.end(), kNeverEmptied));
  }

  static Stats make_stats(std::uint32_t max, std::uint32_t empty,
                          std::uint32_t /*departures*/, ball_count_t balls,
                          ball_count_t /*arrivals*/) {
    return Stats{max, empty, balls};
  }

  Stream stream_;
  ball_count_t arrivals_;
  std::vector<std::uint64_t> first_empty_;
  std::uint32_t not_yet_emptied_ = 0;
};

/// Leaky bins (Berenbrink et al., PODC 2016): one departure per
/// non-empty bin leaves the system, Binomial(n, lambda) fresh arrivals
/// land u.a.r.  Under the counter stream the arrival count is drawn
/// from the round's derived substream, once, before any phase runs.
template <typename StreamP>
struct Leaky {
  using Stream = StreamP;
  using Stats = LeakyRoundStats;
  static constexpr BallVariantKind kKind = BallVariantKind::kLeaky;
  static constexpr bool kConservesBalls = false;

  Leaky(Stream stream, double lambda)
      : stream_(std::move(stream)), lambda_(lambda) {}

  void validate(std::uint32_t /*n*/) const {
    if (!(lambda_ >= 0.0 && lambda_ <= 1.0)) {
      throw std::invalid_argument("LeakyBinsProcess: lambda outside [0, 1]");
    }
  }
  void init(const std::vector<load_t>& loads) {
    law_.emplace(loads.size(), lambda_);
  }

  static Stats make_stats(std::uint32_t max, std::uint32_t empty,
                          std::uint32_t /*departures*/, ball_count_t balls,
                          ball_count_t arrivals) {
    return Stats{max, empty, balls, arrivals};
  }

  Stream stream_;
  double lambda_;
  std::optional<BinomialSampler> law_;
};

}  // namespace kernel
}  // namespace rbb

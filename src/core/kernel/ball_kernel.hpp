// The process core: ONE round-kernel template over the policy matrix
// (variant x execution x RNG stream) -- DESIGN.md Sect. 5.
//
// Every load-shaped process in the repository is an instantiation of
// BallProcessCore:
//
//   variant (variants.hpp)   LoadOnly | DChoices | Tetris | Leaky,
//                            each carrying its RNG stream policy
//                            (SequentialStream xoshiro256++ or
//                            CounterStream Philox4x32),
//   execution (exec.hpp)     SequentialExecution (in-place walk) or
//                            ShardedExecution (two-phase striped
//                            throw/commit rounds, driven by
//                            pipeline.hpp's run_rounds).
//
// The sequential instantiations reproduce the historical hand-written
// kernels draw-for-draw (RepeatedBallsProcess, TetrisProcess,
// LeakyBinsProcess, RepeatedDChoicesProcess are thin constructor
// adapters over this template); the sharded instantiations execute one
// round of one instance across all cores and are bit-identical to their
// sequential counter-stream siblings for every thread count and shard
// size (pinned by tests/par/).  The static_assert below is the whole
// compatibility rule: sharded execution requires a schedule-free
// stream.
//
// Count-split rounds (load-only, Tetris and leaky on the counter
// stream; kCountArrivals): balls have no identity once thrown, so no
// ball moves.  A departure scan removes one ball from every non-empty
// bin; the round's k arrivals (the departures, or the fresh Tetris /
// leaky count) are split over fixed 2^14-bin leaves by conditional
// binomials, each leaf draws its in-leaf offsets and increments them in
// cache (count_split.hpp); a scan of the end loads yields the
// statistics and Tetris first-empty rounds.  Sequentially that is one
// pass each over [0, n) (step_counts, the parity oracle).  Sharded, the
// round is one pass over the loads.  Phase 1 *throw* touches no load:
// a round's departure count is known before it runs -- every non-empty
// bin releases one ball, so stripe g's k_g is its bin count less the
// zeros of its previous round-end scan -- and the stripe records k_g in
// a per-stripe cell double-buffered by round parity.  Phase 2 *commit*
// has each owner sum the k_g (or take the fresh count), walk the split
// tree down to its own leaves and, shard by shard, depart the bins
// those leaves cover, draw the leaves and scan the shard while it is
// in cache.  A leaf cut by a stripe boundary (non-default shard sizes
// only) is drawn whole by every stripe touching it, each applying its
// own bins.
//
// Per-ball rounds (every xoshiro kernel, and d-choices / threshold on
// the counter stream; step_sequential) use the same range operations:
// the branch-free departure scan (the counter-stream choose variants
// also bank the releasing bins by compaction), then one draw per
// arrival in releasing-bin order -- the xoshiro clique path block-draws
// its destinations so the generator state stays in registers and
// applies them with a prefetched scatter -- then the round-end scan for
// the max load, the empty count and the Tetris first-empty rounds
// (design choice D3).  Only the graph path walks the bins one by one,
// because its neighbour draws interleave with the bin order.  Sharded,
// d-choices and threshold keep the per-ball scatter: throw banks the
// releasers, an extra
// *choose* phase reads the now-stable post-departure loads and pushes
// each pick to its target shard, and commit drains every buffer
// addressed to a stripe's shards in canonical order (pipeline.hpp's
// run_pipeline).
//
// Either way the stripe results reduce in fixed order, with no locks,
// no atomics and no shared cache lines inside a phase.  Every sharded
// round -- step() is run(1) -- goes through run_sharded: a pipelined
// worker team at width >= 2, the same phases inline at width 1.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/kernel/count_split.hpp"
#include "core/kernel/exec.hpp"
#include "core/kernel/pipeline.hpp"
#include "core/kernel/variants.hpp"
#include "obs/metrics.hpp"
#include "support/bounds.hpp"
#include "support/serial.hpp"
#include "support/types.hpp"

namespace rbb::kernel {

template <typename Variant, typename Exec>
class BallProcessCore {
 public:
  using Stream = typename Variant::Stream;
  using Stats = typename Variant::Stats;
  static constexpr BallVariantKind kKind = Variant::kKind;
  static constexpr bool kShardedExec = Exec::kSharded;
  /// Refill variants discard the departing ball and draw a fresh batch
  /// of arrivals; choose variants resolve candidates against the
  /// post-departure loads before any arrival commits.
  static constexpr bool kRefill = kKind == BallVariantKind::kTetris ||
                                  kKind == BallVariantKind::kLeaky;
  static constexpr bool kChoose = kKind == BallVariantKind::kDChoices ||
                                  kKind == BallVariantKind::kThreshold;
  /// Exchangeable variants on the counter stream draw arrival counts
  /// (count_split.hpp) instead of one destination per ball; only the
  /// choose variants keep a per-ball scatter.
  static constexpr bool kCountArrivals =
      Stream::kScheduleFree &&
      (kKind == BallVariantKind::kLoadOnly || kRefill);

  static_assert(!kShardedExec || Stream::kScheduleFree,
                "sharded execution requires a schedule-free (counter) RNG "
                "stream: a sequential generator would serialize the round "
                "or make results depend on the schedule");
  static_assert(std::is_same_v<LoadConfig::value_type, load_t>,
                "LoadConfig must store load_t (see support/types.hpp)");

  static constexpr std::uint64_t kNeverEmptied =
      std::numeric_limits<std::uint64_t>::max();

  BallProcessCore(LoadConfig initial, Variant variant,
                  ExecOptions options = {})
      : loads_(std::move(initial)),
        variant_(std::move(variant)),
        exec_(loads_.empty() ? 1 : static_cast<std::uint32_t>(loads_.size()),
              options),
        leaves_(static_cast<std::uint32_t>(loads_.size())),
        balls_(rbb::total_balls(loads_)) {
    if (loads_.empty()) {
      throw std::invalid_argument("BallProcessCore: empty configuration");
    }
    variant_.validate(bin_count());
    variant_.init(loads_);
    if constexpr (kShardedExec) acc_.resize(exec_.plan().stripe_count());
    recompute_stats();
  }

  /// Executes one synchronous round; returns end-of-round statistics.
  Stats step() { return run(1); }

  /// Executes `rounds` rounds; returns the stats of the last one (the
  /// current state, untouched, when rounds == 0).  Sharded rounds run
  /// through run_sharded (pipelined on a resident worker team --
  /// pipeline.hpp); trajectories are bit-identical for every split of
  /// the same rounds into run() calls (pinned by tests/par/).
  Stats run(std::uint64_t rounds) {
    if (rounds == 0) {
      return Variant::make_stats(stats_.max, stats_.zeros, 0, balls_, 0);
    }
    if constexpr (kShardedExec) {
      run_sharded(rounds);
    } else if constexpr (kCountArrivals) {
      for (std::uint64_t t = 0; t < rounds; ++t) step_counts();
    } else {
      for (std::uint64_t t = 0; t < rounds; ++t) step_sequential();
    }
    return Variant::make_stats(stats_.max, stats_.zeros, last_departures_,
                               balls_, last_arrivals_);
  }

  // --- identity and load-shaped state ---------------------------------------

  [[nodiscard]] std::uint32_t bin_count() const noexcept {
    return static_cast<std::uint32_t>(loads_.size());
  }
  /// Rounds executed since construction.
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] const LoadConfig& loads() const noexcept { return loads_; }
  /// Current maximum load (O(1); from the round-end scan).
  [[nodiscard]] load_t max_load() const noexcept { return stats_.max; }
  /// Current number of empty bins (O(1)).
  [[nodiscard]] std::uint32_t empty_bins() const noexcept {
    return stats_.zeros;
  }
  /// True iff max_load() <= beta * log2(n).
  [[nodiscard]] bool is_legitimate(double beta = 4.0) const {
    return static_cast<double>(stats_.max) <= beta * log2n(bin_count());
  }

  /// Balls currently in the system (== ball_count() for conserving
  /// variants; evolves for Tetris / leaky bins).
  [[nodiscard]] ball_count_t total_balls() const noexcept { return balls_; }
  [[nodiscard]] ball_count_t ball_count() const noexcept
    requires Variant::kConservesBalls
  {
    return balls_;
  }

  [[nodiscard]] const ShardPlan& plan() const noexcept
    requires kShardedExec
  {
    return exec_.plan();
  }

  /// Bytes of resident kernel state (load vector, variant bookkeeping,
  /// scratch and scatter buffers at their current capacity).  Feeds the
  /// memory column of sharded_scaling.
  [[nodiscard]] std::size_t resident_state_bytes() const noexcept {
    std::size_t bytes = loads_.capacity() * sizeof(load_t) +
                        scratch_.capacity() * sizeof(bin_index_t) +
                        scratch_dest_.capacity() * sizeof(bin_index_t) +
                        scratch_cand_.capacity() * sizeof(bin_index_t);
    if constexpr (!kCountArrivals) bytes += buffers_.capacity_bytes();
    bytes += acc_.capacity() * sizeof(StripeAcc);
    for (const StripeAcc& acc : acc_) {
      bytes += acc.releasers.capacity() * sizeof(bin_index_t);
    }
    if constexpr (kKind == BallVariantKind::kTetris) {
      bytes += variant_.first_empty_.capacity() * sizeof(std::uint64_t);
    }
    return bytes;
  }

  // --- variant-specific surface ---------------------------------------------

  [[nodiscard]] std::uint32_t choices() const noexcept
    requires(kKind == BallVariantKind::kDChoices)
  {
    return variant_.d_;
  }

  [[nodiscard]] load_t threshold() const noexcept
    requires(kKind == BallVariantKind::kThreshold)
  {
    return variant_.threshold_;
  }

  [[nodiscard]] std::uint32_t probes() const noexcept
    requires(kKind == BallVariantKind::kThreshold)
  {
    return variant_.probes_;
  }

  [[nodiscard]] double lambda() const noexcept
    requires(kKind == BallVariantKind::kLeaky)
  {
    return variant_.lambda_;
  }

  [[nodiscard]] ball_count_t arrivals_per_round() const noexcept
    requires(kKind == BallVariantKind::kTetris)
  {
    return variant_.arrivals_;
  }

  /// First round at the end of which bin u was empty (0 if initially
  /// empty; kNeverEmptied if it has not emptied yet).  Lemma 4 predicts
  /// max over bins <= 5n w.h.p. from any start.
  [[nodiscard]] std::uint64_t first_empty_round(bin_index_t u) const
    requires(kKind == BallVariantKind::kTetris)
  {
    return variant_.first_empty_[u];
  }
  /// True once every bin has been empty at least once.
  [[nodiscard]] bool all_emptied_once() const noexcept
    requires(kKind == BallVariantKind::kTetris)
  {
    return variant_.not_yet_emptied_ == 0;
  }
  /// Max over bins of first_empty_round (kNeverEmptied until
  /// all_emptied_once()).
  [[nodiscard]] std::uint64_t max_first_empty_round() const
    requires(kKind == BallVariantKind::kTetris)
  {
    if (variant_.not_yet_emptied_ != 0) return kNeverEmptied;
    std::uint64_t worst = 0;
    for (const std::uint64_t r : variant_.first_empty_) {
      worst = std::max(worst, r);
    }
    return worst;
  }
  /// Runs until all bins have emptied once or `max_rounds` elapse;
  /// returns the round by which the last bin first emptied, or
  /// kNeverEmptied.
  std::uint64_t run_until_all_emptied(std::uint64_t max_rounds)
    requires(kKind == BallVariantKind::kTetris)
  {
    while (!all_emptied_once()) {
      if (round_ >= max_rounds) return kNeverEmptied;
      step();
    }
    return max_first_empty_round();
  }

  /// Adversarial reassignment (paper, Sect. 4.1): replaces the entire
  /// configuration.  The new configuration must contain the same number
  /// of balls.  Counts as a faulty round, not a process round.
  void reassign(const LoadConfig& q)
    requires Variant::kConservesBalls
  {
    validate_config(q, balls_);
    if (q.size() != loads_.size()) {
      throw std::invalid_argument("reassign: bin count mismatch");
    }
    loads_ = q;
    recompute_stats();
  }

  /// Serializes the complete trajectory state (DESIGN.md Sect. 7).
  /// Counter streams draw by (seed, round, slot), so loads + round +
  /// the variant's cumulative bookkeeping close the state: restore()
  /// into an identically-constructed process continues bit-identically.
  /// Round-boundary only -- check_invariants() proves the scatter
  /// buffers (choose variants) are always drained there, so they are
  /// never serialized.
  void snapshot(serial::ByteWriter& w) const
    requires Stream::kScheduleFree
  {
    using W = serial::ByteWriter;
    std::size_t bytes = 3 * sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                        W::vec_bytes<load_t>(loads_.size());
    if constexpr (kKind == BallVariantKind::kTetris) {
      bytes += W::vec_bytes<std::uint64_t>(variant_.first_empty_.size());
    }
    w.reserve(bytes);
    w.u64(round_);
    w.u64(balls_);
    w.u32(last_departures_);
    w.u64(last_arrivals_);
    w.vec(loads_);
    if constexpr (kKind == BallVariantKind::kTetris) {
      w.vec(variant_.first_empty_);
    }
  }

  /// Inverse of snapshot().  The target must be constructed with the
  /// same configuration shape (the checkpoint layer verifies family,
  /// n, m, seed, and options digest before calling); shape or
  /// conservation mismatches throw std::invalid_argument and leave no
  /// partial state observable to step().
  void restore(serial::ByteReader& r)
    requires Stream::kScheduleFree
  {
    const std::uint64_t round = r.u64();
    const std::uint64_t balls = r.u64();
    const std::uint32_t last_departures = r.u32();
    const std::uint64_t last_arrivals = r.u64();
    LoadConfig loads;
    r.vec(loads);
    if (loads.size() != loads_.size()) {
      throw std::invalid_argument("restore: bin count mismatch");
    }
    if (rbb::total_balls(loads) != balls) {
      throw std::invalid_argument("restore: ball count inconsistent");
    }
    if constexpr (kKind == BallVariantKind::kTetris) {
      std::vector<std::uint64_t> first_empty;
      r.vec(first_empty);
      if (first_empty.size() != loads.size()) {
        throw std::invalid_argument("restore: first-empty size mismatch");
      }
      variant_.first_empty_ = std::move(first_empty);
      variant_.not_yet_emptied_ = variant_.never_emptied();
    }
    loads_ = std::move(loads);
    balls_ = balls;
    round_ = round;
    last_departures_ = last_departures;
    last_arrivals_ = last_arrivals;
    recompute_stats();
  }

  /// Testing hook: recomputes the kept bookkeeping (ball count, round-end
  /// statistics, first-empty count, and on the sharded count-split
  /// cores each stripe's zeros, which its next throw reads) from
  /// scratch and throws std::logic_error on drift.
  void check_invariants() const {
    if (rbb::total_balls(loads_) != balls_) {
      throw std::logic_error("BallProcessCore: ball count drifted");
    }
    if (rbb::max_load(loads_) != stats_.max) {
      throw std::logic_error("BallProcessCore: max load out of sync");
    }
    if (rbb::empty_bins(loads_) != stats_.zeros) {
      throw std::logic_error("BallProcessCore: empty count out of sync");
    }
    if constexpr (kKind == BallVariantKind::kTetris) {
      if (variant_.never_emptied() != variant_.not_yet_emptied_) {
        throw std::logic_error(
            "BallProcessCore: first-empty tracking out of sync");
      }
    }
    if constexpr (!kCountArrivals) {
      if (!buffers_.drained()) {
        throw std::logic_error("BallProcessCore: scatter buffer not drained");
      }
    }
    if constexpr (kShardedExec && kCountArrivals) {
      const ShardPlan& plan = exec_.plan();
      for (std::uint32_t g = 0; g < plan.stripe_count(); ++g) {
        const auto zeros = static_cast<std::uint32_t>(
            std::count(loads_.begin() + plan.stripe_begin_bin(g),
                       loads_.begin() + plan.stripe_end_bin(g), load_t{0}));
        if (zeros != acc_[g].scan.zeros) {
          throw std::logic_error("BallProcessCore: stripe zeros out of sync");
        }
      }
    }
  }

 private:
  /// The round-end statistics of the current loads, from scratch.  The
  /// sharded cores also seed each stripe's scan here: a count-split
  /// throw takes its departure count from the stripe's last zeros.
  void recompute_stats() {
    stats_ = LoadScan{};
    if constexpr (kShardedExec) {
      const ShardPlan& plan = exec_.plan();
      for (std::uint32_t g = 0; g < plan.stripe_count(); ++g) {
        const bin_index_t begin = plan.stripe_begin_bin(g);
        acc_[g].scan = LoadScan{};
        acc_[g].scan.add_range(loads_.data() + begin,
                               plan.stripe_end_bin(g) - begin);
        stats_.merge(acc_[g].scan);
      }
    } else {
      stats_.add_range(loads_.data(), loads_.size());
    }
  }

  /// Applies a materialized destination block with a prefetched
  /// scatter: at large n the load vector out-sizes the cache and the
  /// random writes otherwise stall per arrival.  Branch-free; the
  /// round-end scan_range() brings the statistics up to date.
  void apply_scatter(const std::vector<bin_index_t>& dests) {
    constexpr std::size_t kPrefetchAhead = 16;
    load_t* loads = loads_.data();
    const std::size_t count = dests.size();
    for (std::size_t i = 0; i < count; ++i) {
      if (i + kPrefetchAhead < count) {
        __builtin_prefetch(&loads[dests[i + kPrefetchAhead]], 1);
      }
      ++loads[dests[i]];
    }
  }

  /// The round's fresh-arrival count (refill variants).  Drawn before
  /// any phase runs, so it is schedule-free under the counter stream.
  [[nodiscard]] ball_count_t draw_arrival_count(std::uint64_t r) {
    if constexpr (kKind == BallVariantKind::kTetris) {
      return variant_.arrivals_;
    } else if constexpr (kKind == BallVariantKind::kLeaky) {
      if constexpr (Stream::kScheduleFree) {
        Rng rng = variant_.stream_.round_rng(r, kArrivalCountTag);
        return (*variant_.law_)(rng);
      } else {
        return (*variant_.law_)(variant_.stream_.rng());
      }
    } else {
      return 0;
    }
  }

  // --- range operations ------------------------------------------------------
  //
  // Shared by the sequential rounds (one range, [0, n)) and the sharded
  // stripes (their own bins): the departure scans, the count-split
  // per-leaf arrival draws, and the round-end scan.

  /// One departure from every non-empty bin of [begin, end); returns
  /// how many.  Branch-free, so it vectorizes.
  std::uint32_t depart_range(bin_index_t begin, bin_index_t end) {
    load_t* loads = loads_.data();
    std::uint32_t departures = 0;
    for (bin_index_t u = begin; u < end; ++u) {
      const load_t busy = loads[u] != 0 ? 1 : 0;
      loads[u] -= busy;
      departures += busy;
    }
    return departures;
  }

  /// depart_range() that also banks the releasing bins, in bin order,
  /// into out[0, k) by branch-free compaction; `out` must hold
  /// end - begin entries.  Returns k, the number of departures.
  std::uint32_t depart_bank(bin_index_t begin, bin_index_t end,
                            bin_index_t* out)
    requires kChoose
  {
    load_t* loads = loads_.data();
    std::uint32_t k = 0;
    for (bin_index_t u = begin; u < end; ++u) {
      const load_t busy = loads[u] != 0 ? 1 : 0;
      loads[u] -= busy;
      out[k] = u;
      k += busy;
    }
    return k;
  }

  /// Draws leaf `leaf`'s `count` arrivals of round r and applies those
  /// landing in [lo, hi) -- the whole leaf when it lies inside.
  void apply_leaf(std::uint64_t r, std::uint32_t leaf, ball_count_t count,
                  bin_index_t lo, bin_index_t hi)
    requires kCountArrivals
  {
    load_t* loads = loads_.data();
    const bool whole =
        leaves_.leaf_begin(leaf) >= lo && leaves_.leaf_end(leaf) <= hi;
    leaves_.draw_leaf(variant_.stream_, r, leaf, count,
                      [&](bin_index_t base, const bin_index_t* offsets,
                          std::uint32_t len) {
                        if (whole) {
                          for (std::uint32_t k = 0; k < len; ++k) {
                            ++loads[base + offsets[k]];
                          }
                        } else {
                          for (std::uint32_t k = 0; k < len; ++k) {
                            const bin_index_t v = base + offsets[k];
                            if (v >= lo && v < hi) ++loads[v];
                          }
                        }
                      });
  }

  /// Round-end statistics of [begin, end) of round r, plus Tetris
  /// first-empty marking; returns how many bins emptied for the first
  /// time.  An end load of zero means the bin emptied this round (or
  /// was marked before), since arrivals only add and departures remove
  /// at most one ball.
  std::uint32_t scan_range(std::uint64_t r, bin_index_t begin,
                           bin_index_t end, LoadScan& scan) {
    const load_t* loads = loads_.data();
    scan.add_range(loads + begin, end - begin);
    std::uint32_t newly_emptied = 0;
    if constexpr (kKind == BallVariantKind::kTetris) {
      for (bin_index_t u = begin; u < end; ++u) {
        if (variant_.first_empty_[u] == kNeverEmptied && loads[u] == 0) {
          variant_.first_empty_[u] = r + 1;
          ++newly_emptied;
        }
      }
    }
    return newly_emptied;
  }

  /// One sequential count-split round: the sharded round on a single
  /// stripe, every leaf in order -- the parity oracle of tests/par/.
  void step_counts()
    requires(kCountArrivals && !kShardedExec)
  {
    const std::uint64_t r = round_;
    const std::uint32_t departures = depart_range(0, bin_count());
    const ball_count_t arrivals =
        kRefill ? draw_arrival_count(r) : ball_count_t{departures};
    LeafSplit::Walk walk(leaves_, variant_.stream_, r, arrivals, 0,
                         leaves_.leaf_count());
    std::uint32_t leaf = 0;
    ball_count_t count = 0;
    while (walk.next(leaf, count)) apply_leaf(r, leaf, count, 0, bin_count());
    stats_ = LoadScan{};
    const std::uint32_t newly_emptied = scan_range(r, 0, bin_count(), stats_);
    if constexpr (kKind == BallVariantKind::kTetris) {
      variant_.not_yet_emptied_ -= newly_emptied;
    }
    if constexpr (kRefill) {
      balls_ = balls_ - departures + arrivals;
      last_arrivals_ = arrivals;
    }
    last_departures_ = departures;
    ++round_;
  }

  // --- the sequential round -------------------------------------------------

  /// One round of every sequential instantiation that is not
  /// count-split: the xoshiro kernels and the counter-stream choose
  /// variants.  Shaped like step_counts: departures are one branch-free
  /// range scan -- a constant fraction of the bins is always empty
  /// (Lemma 1), so a per-bin branch on the load mispredicts like a coin
  /// flip -- every draw follows in releasing-bin order, as a per-bin
  /// walk would take them, and the round-end scan yields the statistics
  /// and the Tetris first-empty rounds.  Only the graph path walks the
  /// bins, because its neighbour draws interleave with the bin order.
  void step_sequential()
    requires(!kCountArrivals)
  {
    const std::uint32_t n = bin_count();
    const std::uint64_t r = round_;
    std::uint32_t departures = 0;

    if constexpr (kKind == BallVariantKind::kLoadOnly) {
      if (variant_.graph_ != nullptr) {
        scratch_.clear();
        for (bin_index_t u = 0; u < n; ++u) {
          if (loads_[u] > 0) {
            --loads_[u];
            ++departures;
            scratch_.push_back(
                variant_.graph_->sample_neighbor(u, variant_.stream_.rng()));
          }
        }
      } else {
        // Complete graph: destinations sampled as one block (same
        // stream as per-ball index(n) calls) so the generator state
        // stays in registers (design choice D4).
        departures = depart_range(0, n);
        scratch_.resize(departures);
        variant_.stream_.rng().fill_indices(scratch_.data(), departures, n);
      }
      apply_scatter(scratch_);
    } else if constexpr (kChoose) {
      if constexpr (!Stream::kScheduleFree) {
        // Classic online placement: arrivals of the same round are
        // visible to later probes/choices.
        departures = depart_range(0, n);
        Rng& rng = variant_.stream_.rng();
        for (std::uint32_t i = 0; i < departures; ++i) {
          ++loads_[variant_.choose_one(rng, n, loads_)];
        }
      } else {
        // Batch-snapshot placement: all choices read the post-departure
        // configuration, then all placements commit (the convention the
        // sharded backend realizes; see variants.hpp).  The candidate
        // draws come from gathered planes, candidate-major.
        scratch_.resize(n);
        departures = depart_bank(0, n, scratch_.data());
        scratch_dest_.resize(departures);
        scratch_cand_.resize(departures);
        variant_.choose_batch(r, scratch_.data(), departures, n, loads_,
                              scratch_dest_.data(), scratch_cand_.data());
        apply_scatter(scratch_dest_);
      }
    } else if constexpr (kRefill) {
      // Refill on the xoshiro stream: the departing balls leave and a
      // fresh batch lands ball by ball.
      departures = depart_range(0, n);
      const ball_count_t arrivals = draw_arrival_count(r);
      Rng& rng = variant_.stream_.rng();
      for (ball_count_t i = 0; i < arrivals; ++i) ++loads_[rng.index(n)];
      balls_ = balls_ - departures + arrivals;
      last_arrivals_ = arrivals;
    }
    stats_ = LoadScan{};
    const std::uint32_t newly_emptied = scan_range(r, 0, n, stats_);
    if constexpr (kKind == BallVariantKind::kTetris) {
      variant_.not_yet_emptied_ -= newly_emptied;
    }
    last_departures_ = departures;
    ++round_;
  }

  // --- the sharded round ----------------------------------------------------

  /// Per-stripe accumulator, cache-line padded so stripe tasks never
  /// share a line.  The per-round fields are reset by each round's
  /// throw (so after a run they hold the LAST round's values); the
  /// cum_* fields accumulate across a run, whose single final reduction
  /// covers all of its rounds.
  struct alignas(64) StripeAcc {
    std::uint32_t departures = 0;
    LoadScan scan;
    std::uint64_t cum_departures = 0;
    std::uint32_t cum_newly_emptied = 0;  // Tetris first-empty bookkeeping
    // Count-split cores: k_g of the round on buffer set `set`, read by
    // every owner's commit (the pipeline's parity argument covers it);
    // the owner's walk down the round's split tree; and its departure
    // cursor -- bins [stripe begin, departed_to) have departed this
    // round, `departed` of them non-empty.
    std::uint32_t set_departures[2] = {0, 0};
    LeafSplit::Walk walk;
    std::uint32_t next_leaf = 0;
    bin_index_t departed_to = 0;
    std::uint32_t departed = 0;
    std::vector<bin_index_t> releasers;  // d-choices / threshold
  };

  using Rows = ShardRows<bin_index_t>;

  /// Phase 1 (throw) of the count-split cores for stripe g: publishes
  /// k_g on the round's buffer set without touching a load.  Every
  /// non-empty bin releases one ball, so k_g is the stripe's bin count
  /// less the zeros of its previous round-end scan (seeded by
  /// recompute_stats() before the first round); the commit departs.
  void publish_departures(std::uint32_t g, std::uint32_t set)
    requires(kShardedExec && kCountArrivals)
  {
    const ShardPlan& plan = exec_.plan();
    StripeAcc& acc = acc_[g];
    acc.departures =
        plan.stripe_end_bin(g) - plan.stripe_begin_bin(g) - acc.scan.zeros;
    acc.set_departures[set] = acc.departures;
    acc.cum_departures += acc.departures;
    acc.scan = LoadScan{};
  }

  /// Phase 2 (commit) of the count-split cores for owned shard s of
  /// stripe g, before its scan: departs and then applies every not yet
  /// applied leaf that overlaps s -- the whole leaf, clipped to the
  /// stripe's bins, so a leaf spanning several of the stripe's shards is
  /// drawn once.  The departures run ahead of the arrivals only as far
  /// as the last of those leaves reaches (the departed_to cursor), so
  /// each bin departs on its pre-round load, right before the first
  /// leaf that lands on it, while its cache line is being touched
  /// anyway.  The stripe's first shard starts the walk down round r's
  /// split tree with the round's k: `fresh` for refill variants, the sum
  /// of every stripe's k_g on buffer set `set` for load-only.  Its last
  /// shard checks that the departures match the published k_g.
  void commit_shard(std::uint32_t g, std::uint64_t r, std::uint32_t set,
                    ball_count_t fresh, std::uint32_t s)
    requires(kShardedExec && kCountArrivals)
  {
    const ShardPlan& plan = exec_.plan();
    StripeAcc& acc = acc_[g];
    const bin_index_t lo = plan.stripe_begin_bin(g);
    const bin_index_t hi = plan.stripe_end_bin(g);
    if (s == plan.stripe_begin_shard(g)) {
      ball_count_t total = fresh;
      if constexpr (!kRefill) {
        for (const StripeAcc& peer : acc_) total += peer.set_departures[set];
      }
      acc.next_leaf = leaves_.leaf_of(lo);
      acc.walk = LeafSplit::Walk(leaves_, variant_.stream_, r, total,
                                 acc.next_leaf, leaves_.leaf_of(hi - 1) + 1);
      acc.departed_to = lo;
      acc.departed = 0;
    }
    const std::uint32_t through = leaves_.leaf_of(plan.shard_end(s) - 1);
    const bin_index_t depart_end = std::min(hi, leaves_.leaf_end(through));
    if (acc.departed_to < depart_end) {
      acc.departed += depart_range(acc.departed_to, depart_end);
      acc.departed_to = depart_end;
    }
    std::uint32_t leaf = 0;
    ball_count_t count = 0;
    while (acc.next_leaf <= through && acc.walk.next(leaf, count)) {
      ++acc.next_leaf;
      apply_leaf(r, leaf, count, lo, hi);
    }
    if (s + 1 == plan.stripe_end_shard(g) && acc.departed != acc.departures) {
      throw std::logic_error(
          "BallProcessCore: a stripe departed other than its published k_g");
    }
  }

  /// Phase 1 (throw) of the choose variants for one stripe of round r:
  /// departures, banking the releasing bins for the choose phase.
  /// Reads and writes only the stripe's own bins.
  void throw_stripe(std::uint32_t g)
    requires(kShardedExec && kChoose)
  {
    const bin_index_t begin = exec_.plan().stripe_begin_bin(g);
    const bin_index_t end = exec_.plan().stripe_end_bin(g);
    StripeAcc& acc = acc_[g];
    acc.scan = LoadScan{};
    acc.releasers.resize(end - begin);
    acc.departures = depart_bank(begin, end, acc.releasers.data());
    acc.releasers.resize(acc.departures);
    acc.cum_departures += acc.departures;
  }

  /// Phase 1.5 (choose) for one stripe, d-choices and threshold only:
  /// the stripe resolves its releasers' candidates against the
  /// now-stable post-departure configuration.  Cross-shard loads are
  /// read, never written, so the phase is race-free; the choices are
  /// the batch-snapshot convention the sequential counter-stream
  /// sibling realizes (variants.hpp).
  void choose_stripe(std::uint32_t g, std::uint64_t r, Rows rows)
    requires(kShardedExec && kChoose)
  {
    const std::uint32_t n = bin_count();
    const std::vector<bin_index_t>& rel = acc_[g].releasers;
    bin_index_t best[kDrawChunk];
    bin_index_t cand[kDrawChunk];
    for (std::size_t i = 0; i < rel.size();) {
      const auto len = static_cast<std::uint32_t>(
          std::min<std::size_t>(kDrawChunk, rel.size() - i));
      variant_.choose_batch(r, rel.data() + i, len, n, loads_, best, cand);
      for (std::uint32_t k = 0; k < len; ++k) rows.push(best[k], best[k]);
      i += len;
    }
  }

  /// Phase 2 (commit) epilogue for one shard [begin, end) of stripe g:
  /// the round statistics, plus Tetris first-empty marking.
  void scan_shard(std::uint32_t g, std::uint64_t r, bin_index_t begin,
                  bin_index_t end)
    requires kShardedExec
  {
    acc_[g].cum_newly_emptied += scan_range(r, begin, end, acc_[g].scan);
  }

  /// Runs `rounds` >= 1 sharded rounds through the round driver
  /// (pipeline.hpp: a resident team at width >= 2, inline at width 1),
  /// then reduces the stripe accumulators once, in fixed stripe order.
  /// The counter stream keys every draw by (round, slot) or (round,
  /// tree node), so the trajectory is the sequential counter-stream
  /// sibling's for every thread count, shard size and split into run()
  /// calls.
  void run_sharded(std::uint64_t rounds)
    requires kShardedExec
  {
    // Fresh-arrival counts are drawn sequentially up front: the leaky
    // law is a shared distribution object (not thread-safe), and the
    // draws are schedule-free by (round) key, so hoisting them changes
    // nothing.
    std::vector<ball_count_t> arrivals_by_round;
    if constexpr (kRefill) {
      arrivals_by_round.reserve(rounds);
      for (std::uint64_t i = 0; i < rounds; ++i) {
        arrivals_by_round.push_back(draw_arrival_count(round_ + i));
      }
    }
    for (StripeAcc& acc : acc_) {
      acc.cum_departures = 0;
      acc.cum_newly_emptied = 0;
    }
    const std::uint64_t r0 = round_;
    const auto scan = [&](std::uint32_t g, std::uint64_t i,
                          bin_index_t begin, bin_index_t end) {
      scan_shard(g, r0 + i, begin, end);
    };
    if constexpr (kCountArrivals) {
      run_rounds(
          exec_, rounds, [](bool) {},
          [&](std::uint32_t g, std::uint64_t, std::uint32_t set) {
            publish_departures(g, set);
          },
          NoChoose{},
          [&](std::uint32_t g, std::uint64_t i, std::uint32_t set,
              std::uint32_t s) {
            commit_shard(g, r0 + i, set,
                         kRefill ? arrivals_by_round[i] : ball_count_t{0}, s);
          },
          scan);
    } else {
      run_pipeline(
          exec_, rounds, buffers_,
          [&](std::uint32_t g, std::uint64_t, Rows) { throw_stripe(g); },
          [&](std::uint32_t g, std::uint64_t i, Rows rows) {
            choose_stripe(g, r0 + i, rows);
          },
          [&](std::uint32_t, std::uint64_t,
              const std::vector<bin_index_t>& arrivals) {
            apply_scatter(arrivals);
          },
          scan);
    }

    std::uint64_t total_departures = 0;
    std::uint32_t departures = 0;
    stats_ = LoadScan{};
    for (const StripeAcc& acc : acc_) {
      total_departures += acc.cum_departures;
      departures += acc.departures;
      stats_.merge(acc.scan);
      if constexpr (kKind == BallVariantKind::kTetris) {
        variant_.not_yet_emptied_ -= acc.cum_newly_emptied;
      }
    }
    if constexpr (kRefill) {
      balls_ -= total_departures;
      for (const ball_count_t a : arrivals_by_round) balls_ += a;
      last_arrivals_ = arrivals_by_round.back();
    }
    last_departures_ = departures;
    round_ += rounds;
  }

  LoadConfig loads_;
  Variant variant_;
  Exec exec_;
  LeafSplit leaves_;  // the count-split leaf layout (kCountArrivals)
  ball_count_t balls_;
  std::uint64_t round_ = 0;
  LoadScan stats_;  // max load / empty bins of the round-end scan
  std::uint32_t last_departures_ = 0;
  ball_count_t last_arrivals_ = 0;

  // Sequential-path scratch: releasing bins, block-drawn clique or
  // graph destinations, or Tetris split counts (scratch_), the
  // plane-materialized destinations (scratch_dest_), and the d-choices
  // candidate plane (scratch_cand_).
  std::vector<bin_index_t> scratch_;
  std::vector<bin_index_t> scratch_dest_;
  std::vector<bin_index_t> scratch_cand_;

  /// Picks thrown per (stripe, target shard); sharded choose variants
  /// only -- the count-split cores move no ball.
  struct NoScatter {};
  [[no_unique_address]] std::conditional_t<
      kCountArrivals, NoScatter, ScatterBuffers<bin_index_t>> buffers_;
  std::vector<StripeAcc> acc_;
};

}  // namespace rbb::kernel

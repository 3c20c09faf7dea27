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
//                            throw/commit scatter, driven by
//                            pipeline.hpp's run_pipeline).
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
// Round anatomy (sequential):
//   1. departure walk  -- every non-empty bin releases one ball;
//      relaunch variants collect destinations (stream-dependent: the
//      xoshiro clique path block-draws after the walk so the generator
//      state stays in registers; the counter path banks the releasing
//      bins and materializes their destinations with one gathered
//      draw plane -- support/draw_plane.hpp), refill variants discard
//      the ball;
//   2. arrivals        -- relaunch: apply the collected destinations
//      (d-choices chooses per its placement convention first);
//      refill: draw the round's fresh batch and apply it;
//   3. stats           -- max load / empty bins maintained
//      incrementally (design choice D3).
//
// Round anatomy (sharded): phase 1 *throw* -- stripes walk their own
// bins, perform departures, draw destinations with the counter stream
// in chunked draw planes and push them to their target shards (plus,
// for refill variants, each stripe draws its contiguous share of the
// fresh arrivals; for d-choices an extra *choose* phase reads the
// now-stable post-departure loads); phase 2 *commit* -- pipeline.hpp's
// run_pipeline drains every buffer addressed to a stripe's shards in
// canonical order into this core's apply (one load increment per
// arrival), then hands each shard to its scan (max load, empty bins,
// Tetris first-empty marking); the stripe results reduce in fixed
// order.  No locks, no atomics, no shared cache lines inside a phase.
// Every sharded round -- step() is run(1) -- goes through run_sharded:
// a pipelined worker team at width >= 2, the same phases inline at
// width 1.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/config.hpp"
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
        balls_(rbb::total_balls(loads_)) {
    if (loads_.empty()) {
      throw std::invalid_argument("BallProcessCore: empty configuration");
    }
    variant_.validate(bin_count());
    variant_.init(loads_);
    recompute_stats();
    if constexpr (kShardedExec) acc_.resize(exec_.plan().stripe_count());
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
  /// Current maximum load (O(1); maintained incrementally / by the
  /// commit rescan).
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
    bytes += buffers_.capacity_bytes() + acc_.capacity() * sizeof(StripeAcc);
    for (const StripeAcc& acc : acc_) {
      bytes += acc.releasers.capacity() * sizeof(bin_index_t);
    }
    if constexpr (kKind == BallVariantKind::kTetris) {
      bytes += variant_.first_empty_.capacity() * sizeof(std::uint64_t) +
               variant_.pending_empty_.capacity() * sizeof(bin_index_t);
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
  /// buffers are always drained there, so they are never serialized.
  void snapshot(serial::ByteWriter& w) const
    requires Stream::kScheduleFree
  {
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

  /// Testing hook: recomputes the incremental bookkeeping from scratch
  /// and throws std::logic_error on drift.
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
    if (!buffers_.drained()) {
      throw std::logic_error("BallProcessCore: scatter buffer not drained");
    }
  }

 private:
  void recompute_stats() {
    LoadScan scan;
    for (const load_t load : loads_) scan.add(load);
    stats_ = scan;
  }

  /// Incremental arrival bookkeeping shared by every sequential path.
  void apply_arrival(bin_index_t v) {
    load_t& load = loads_[v];
    if (load == 0) --stats_.zeros;
    if (++load > stats_.max) stats_.max = load;
  }

  /// Applies a materialized destination block with a prefetched
  /// scatter: at large n the load vector out-sizes the cache and the
  /// random writes otherwise stall per arrival.
  void apply_scatter(const std::vector<bin_index_t>& dests) {
    constexpr std::uint32_t kPrefetchAhead = 16;
    const auto count = static_cast<std::uint32_t>(dests.size());
    for (std::uint32_t i = 0; i < count; ++i) {
      if (i + kPrefetchAhead < count) {
        __builtin_prefetch(&loads_[dests[i + kPrefetchAhead]], 1);
      }
      apply_arrival(dests[i]);
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

  // --- the sequential round -------------------------------------------------

  void step_sequential() {
    const std::uint32_t n = bin_count();
    const std::uint64_t r = round_;

    std::uint32_t departures = 0;
    LoadScan scan;
    scratch_.clear();
    if constexpr (kKind == BallVariantKind::kTetris) {
      variant_.pending_empty_.clear();
    }

    for (bin_index_t u = 0; u < n; ++u) {
      load_t& load = loads_[u];
      if (load > 0) {
        --load;
        ++departures;
        if constexpr (kKind == BallVariantKind::kLoadOnly) {
          if constexpr (Stream::kScheduleFree) {
            // Collect the releasing bins; their destinations come from
            // one gathered draw plane after the walk (slot = u).
            scratch_.push_back(u);
          } else if (variant_.graph_ != nullptr) {
            scratch_.push_back(
                variant_.graph_->sample_neighbor(u, variant_.stream_.rng()));
          }
          // xoshiro clique path: destinations are block-drawn below so
          // the generator state stays in registers (design choice D4).
        } else if constexpr (kChoose) {
          if constexpr (Stream::kScheduleFree) {
            scratch_.push_back(u);  // releasers; choices read the snapshot
          }
          // sequential stream: draws interleave with placement below.
        } else {
          --balls_;  // refill: the departing ball leaves the system
          if constexpr (kKind == BallVariantKind::kTetris) {
            if (load == 0 && variant_.first_empty_[u] == kNeverEmptied) {
              variant_.pending_empty_.push_back(u);
            }
          }
        }
      }
      scan.add(load);
    }
    stats_ = scan;

    if constexpr (kKind == BallVariantKind::kLoadOnly) {
      if constexpr (!Stream::kScheduleFree) {
        if (variant_.graph_ == nullptr) {
          // Complete graph: destinations sampled as one block (same
          // stream as per-ball index(n) calls) and applied with a
          // prefetched scatter -- at large n the load vector out-sizes
          // the cache and the random writes otherwise stall per arrival.
          scratch_.resize(departures);
          variant_.stream_.rng().fill_indices(scratch_.data(), departures,
                                              n);
          apply_scatter(scratch_);
        } else {
          for (const bin_index_t v : scratch_) apply_arrival(v);
        }
      } else {
        // Counter path: scratch_ holds the releasing bins; one gathered
        // draw plane materializes every destination (bit-identical to
        // the per-slot draws), then the same prefetched scatter.
        scratch_dest_.resize(scratch_.size());
        variant_.stream_.fill_gather(
            r, scratch_.data(), 0, scratch_.size(), n,
            scratch_dest_.data());
        apply_scatter(scratch_dest_);
      }
    } else if constexpr (kChoose) {
      if constexpr (!Stream::kScheduleFree) {
        // Classic online placement: arrivals of the same round are
        // visible to later probes/choices.
        Rng& rng = variant_.stream_.rng();
        if constexpr (kKind == BallVariantKind::kDChoices) {
          const std::uint32_t d = variant_.d_;
          for (std::uint32_t i = 0; i < departures; ++i) {
            bin_index_t best = rng.index(n);
            for (std::uint32_t j = 1; j < d; ++j) {
              const bin_index_t c = rng.index(n);
              if (loads_[c] < loads_[best]) best = c;
            }
            apply_arrival(best);
          }
        } else {
          for (std::uint32_t i = 0; i < departures; ++i) {
            apply_arrival(variant_.choose_one(rng, n, loads_));
          }
        }
      } else {
        // Batch-snapshot placement: all choices read the post-departure
        // configuration, then all placements commit (the convention the
        // sharded backend realizes; see variants.hpp).  The candidate
        // draws come from gathered planes, candidate-major.
        const auto m = static_cast<std::uint32_t>(scratch_.size());
        scratch_dest_.resize(m);
        scratch_cand_.resize(m);
        variant_.choose_batch(r, scratch_.data(), m, n, loads_,
                              scratch_dest_.data(), scratch_cand_.data());
        apply_scatter(scratch_dest_);
      }
    } else if constexpr (kRefill) {
      const ball_count_t arrivals = draw_arrival_count(r);
      bool ball_by_ball = true;
      if constexpr (kKind == BallVariantKind::kTetris) {
        if (variant_.sampling_ == ArrivalSampling::kSplit) {
          ball_by_ball = false;
          // kSplit is sequential-stream-only (validated at construction).
          if constexpr (!Stream::kScheduleFree) {
            const std::vector<std::uint32_t> counts =
                occupancy_split(arrivals, n, variant_.stream_.rng());
            for (bin_index_t v = 0; v < n; ++v) {
              for (std::uint32_t c = 0; c < counts[v]; ++c) apply_arrival(v);
            }
          }
        }
      }
      if (ball_by_ball) {
        if constexpr (Stream::kScheduleFree) {
          // The fresh-arrival slots are contiguous: chunked range
          // planes, applied as each chunk lands.
          bin_index_t chunk[kDrawChunk];
          for (ball_count_t i = 0; i < arrivals;) {
            const auto len = static_cast<std::uint32_t>(
                std::min<ball_count_t>(kDrawChunk, arrivals - i));
            variant_.stream_.fill_range(r, fresh_arrival_slot(i), len, n,
                                        chunk);
            for (std::uint32_t k = 0; k < len; ++k) apply_arrival(chunk[k]);
            i += len;
          }
        } else {
          for (ball_count_t i = 0; i < arrivals; ++i) {
            apply_arrival(variant_.stream_.rng().index(n));
          }
        }
      }
      balls_ += arrivals;
      last_arrivals_ = arrivals;
      if constexpr (kKind == BallVariantKind::kTetris) {
        // A bin that reached zero in the departure walk was "empty at
        // this round's end" only if no arrival refilled it.
        for (const bin_index_t u : variant_.pending_empty_) {
          if (loads_[u] == 0 && variant_.first_empty_[u] == kNeverEmptied) {
            variant_.first_empty_[u] = r + 1;
            --variant_.not_yet_emptied_;
          }
        }
      }
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
    std::vector<bin_index_t> releasers;   // d-choices / threshold
  };

  using Rows = ShardRows<bin_index_t>;

  /// Phase 1 (throw) for one stripe of round r: departures +
  /// destination draws pushed to their target shards.  The counter
  /// stream keys every draw by (round, slot), so the round's randomness
  /// is independent of the schedule.  Reads and writes only the
  /// stripe's own bins; refill variants also draw their contiguous
  /// share of the round's fresh arrivals here -- those draws read no
  /// loads.
  void throw_stripe(std::uint32_t g, std::uint64_t r, ball_count_t arrivals,
                    Rows rows)
    requires kShardedExec
  {
    const std::uint32_t n = bin_count();
    const ShardPlan& plan = exec_.plan();
    const std::uint32_t stripes = plan.stripe_count();
    StripeAcc& acc = acc_[g];
    acc.departures = 0;
    acc.scan = LoadScan{};
    const bin_index_t begin = plan.stripe_begin_bin(g);
    const bin_index_t end = plan.stripe_end_bin(g);
    if constexpr (kKind == BallVariantKind::kLoadOnly) {
      // The walk banks releasing bins into a stack chunk; each flush
      // materializes the chunk's destinations with one gathered draw
      // plane and scatters them.  Ascending-u push order per buffer
      // is preserved, so the commit order is unchanged.
      bin_index_t slot_buf[kDrawChunk];
      bin_index_t dest_buf[kDrawChunk];
      std::uint32_t pending = 0;
      const auto flush = [&] {
        obs::add(obs::Counter::kChunkFlushes);
        variant_.stream_.fill_gather(r, slot_buf, 0, pending, n, dest_buf);
        for (std::uint32_t i = 0; i < pending; ++i) {
          rows.push(dest_buf[i], dest_buf[i]);
        }
        pending = 0;
      };
      for (bin_index_t u = begin; u < end; ++u) {
        load_t& load = loads_[u];
        if (load > 0) {
          --load;
          ++acc.departures;
          slot_buf[pending++] = u;
          if (pending == kDrawChunk) flush();
        }
      }
      if (pending > 0) flush();
    } else {
      if constexpr (kChoose) {
        acc.releasers.clear();
      }
      for (bin_index_t u = begin; u < end; ++u) {
        load_t& load = loads_[u];
        if (load > 0) {
          --load;
          ++acc.departures;
          if constexpr (kChoose) {
            acc.releasers.push_back(u);
          }
          // refill: the ball leaves; nothing to scatter for it.
        }
      }
    }
    if constexpr (kRefill) {
      const ball_count_t lo = arrivals * g / stripes;
      const ball_count_t hi = arrivals * (g + 1) / stripes;
      bin_index_t chunk[kDrawChunk];
      for (ball_count_t i = lo; i < hi;) {
        const auto len = static_cast<std::uint32_t>(
            std::min<ball_count_t>(kDrawChunk, hi - i));
        obs::add(obs::Counter::kChunkFlushes);
        variant_.stream_.fill_range(r, fresh_arrival_slot(i), len, n, chunk);
        for (std::uint32_t k = 0; k < len; ++k) rows.push(chunk[k], chunk[k]);
        i += len;
      }
    }
    acc.cum_departures += acc.departures;
  }

  /// Phase 1.5 (choose) for one stripe, d-choices and threshold only:
  /// the stripe resolves its releasers' candidates against the
  /// now-stable post-departure configuration.  Cross-shard loads are
  /// read, never written, so the phase is race-free; the choices are
  /// the batch-snapshot convention the sequential counter-stream
  /// sibling realizes (variants.hpp).
  void choose_stripe(std::uint32_t g, std::uint64_t r, Rows rows)
    requires kShardedExec
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
    LoadScan scan;
    for (bin_index_t u = begin; u < end; ++u) {
      const load_t load = loads_[u];
      scan.add(load);
      if constexpr (kKind == BallVariantKind::kTetris) {
        // End-load zero means the bin emptied this round (or was marked
        // before): equivalent to the sequential pending logic, since
        // arrivals only add and departures remove at most one ball.
        if (load == 0 && variant_.first_empty_[u] == kNeverEmptied) {
          variant_.first_empty_[u] = r + 1;
          ++acc_[g].cum_newly_emptied;
        }
      }
    }
    acc_[g].scan.merge(scan);
  }

  /// Runs `rounds` >= 1 sharded rounds through the round driver
  /// (pipeline.hpp: a resident team at width >= 2, inline at width 1),
  /// then reduces the stripe accumulators once, in fixed stripe order.
  /// The counter stream keys every draw by (round, slot), so the
  /// trajectory is the sequential counter-stream sibling's for every
  /// thread count, shard size and split into run() calls.
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
    run_pipeline(
        exec_, rounds, buffers_,
        [&](std::uint32_t g, std::uint64_t i, Rows rows) {
          throw_stripe(g, r0 + i,
                       kRefill ? arrivals_by_round[i] : ball_count_t{0}, rows);
        },
        [&] {
          if constexpr (kChoose) {
            return [&](std::uint32_t g, std::uint64_t i, Rows rows) {
              choose_stripe(g, r0 + i, rows);
            };
          } else {
            return NoChoose{};
          }
        }(),
        [&](std::uint32_t, std::uint64_t,
            const std::vector<bin_index_t>& arrivals) {
          for (const bin_index_t dest : arrivals) ++loads_[dest];
        },
        [&](std::uint32_t g, std::uint64_t i, bin_index_t begin,
            bin_index_t end) { scan_shard(g, r0 + i, begin, end); });

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
  ball_count_t balls_;
  std::uint64_t round_ = 0;
  LoadScan stats_;  // max load / empty bins, maintained incrementally
  std::uint32_t last_departures_ = 0;
  ball_count_t last_arrivals_ = 0;

  // Sequential-path scratch: releasing bins / block-drawn clique
  // destinations (scratch_), the plane-materialized destinations
  // (scratch_dest_), and the d-choices candidate plane (scratch_cand_).
  std::vector<bin_index_t> scratch_;
  std::vector<bin_index_t> scratch_dest_;
  std::vector<bin_index_t> scratch_cand_;

  /// Destinations thrown per (stripe, target shard); sharded only.
  ScatterBuffers<bin_index_t> buffers_;
  std::vector<StripeAcc> acc_;
};

}  // namespace rbb::kernel

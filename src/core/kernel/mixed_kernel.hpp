// The mixed-regime process core: m != n, weighted balls, heterogeneous
// bins (DESIGN.md Sect. 5).
//
// Los & Sauerwald's general repeated process decouples the ball count
// from the bin count (m = c * n); the production analogue also carries
// hot keys (balls of unequal integer weight) and unequal servers (bins
// with per-round service rates and finite capacities).  The classical
// core (ball_kernel.hpp) keeps its anonymous-ball representation --
// this sibling template tracks per-bin PER-CLASS counts instead, the
// smallest state that makes weighted accounting exact while staying
// load-shaped (loads() is still the plain per-bin ball count).
//
// Round semantics:
//   1. departures -- bin u releases min(load_u, rate_u) balls.  The
//      j-th departure of bin u picks WHICH ball leaves uniformly among
//      the balls still in the bin (so a class departs proportionally
//      to its share -- the property the statistical oracle suite
//      pins), then draws a uniform destination over [0, n).
//   2. arrivals -- applied in ascending global (u, j) order.  An
//      arrival to a bin at its capacity is DROPPED and counted
//      (dropped_balls / dropped_weight); everything else conserves, so
//      initial totals == current totals + cumulative drops is the
//      conservation invariant check_invariants() enforces.
//   3. stats -- max load, empty bins, max weighted load, and (when any
//      bin has a finite capacity) max utilization, recomputed in the
//      same pass that the sharded commit rescans anyway.
//
// Schedule-free draws: the class pick of departure j of bin u draws on
// slot 2^50 | (j << 32) | u, its destination on 2^51 | (j << 32) | u
// (stream.hpp) -- one slot per (round, bin, departure), so the sharded
// two-phase throw/commit reproduces the sequential counter-stream
// trajectory bit for bit.  Why the ORDER also matches: the sequential
// path applies arrivals in ascending global (u, j); the sharded commit
// (pipeline.hpp's run_pipeline) drains each destination shard's buffers
// in ascending source-stripe order, each buffer in push order
// (ascending (u, j) within the stripe) -- so per destination bin the
// arrival order is identical, and capacity/drop decisions depend on
// nothing else.  The sequential round and the sharded phases share
// both passes (depart_range, arrive).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/kernel/exec.hpp"
#include "core/kernel/pipeline.hpp"
#include "core/kernel/stream.hpp"
#include "core/mixed_config.hpp"
#include "obs/metrics.hpp"
#include "support/serial.hpp"
#include "support/types.hpp"

namespace rbb {

/// End-of-round statistics of the mixed-regime process (rbb namespace
/// like the other round-stats structs, so adapters and tests name it
/// without reaching into kernel::).
struct MixedRoundStats {
  std::uint32_t max_load = 0;
  std::uint32_t empty_bins = 0;
  ball_count_t departures = 0;      // balls released this round
  ball_count_t drops = 0;           // arrivals lost to full bins
  weighted_load_t max_weighted_load = 0;
  ball_count_t total_balls = 0;     // post-round (drops leave the system)
  weighted_load_t total_weight = 0;
};

namespace kernel {

template <typename StreamP, typename Exec>
class MixedProcessCore {
 public:
  using Stream = StreamP;
  using Stats = MixedRoundStats;
  static constexpr bool kShardedExec = Exec::kSharded;

  static_assert(!kShardedExec || Stream::kScheduleFree,
                "sharded execution requires a schedule-free (counter) RNG "
                "stream (see ball_kernel.hpp)");

  MixedProcessCore(MixedSpec spec, Stream stream, ExecOptions options = {})
      : weights_(std::move(spec.weights)),
        rates_(std::move(spec.rates)),
        caps_(std::move(spec.capacities)),
        counts_(std::move(spec.class_counts)),
        stream_(std::move(stream)),
        exec_(spec.bins == 0 ? 1 : spec.bins, options) {
    const std::uint32_t n = spec.bins;
    const std::size_t k = weights_.class_weights.size();
    if (n == 0 || k == 0) {
      throw std::invalid_argument("MixedProcessCore: empty spec");
    }
    if (rates_.size() != n || caps_.size() != n ||
        counts_.size() != static_cast<std::size_t>(n) * k) {
      throw std::invalid_argument("MixedProcessCore: mismatched spec tables");
    }
    for (const std::uint32_t rate : rates_) {
      if (rate >= (1u << 16)) {
        throw std::invalid_argument(
            "MixedProcessCore: service rate exceeds the departure-index "
            "slot space (rate < 2^16)");
      }
    }
    loads_.assign(n, 0);
    wload_.assign(n, 0);
    recompute_from_counts();
    if (over_capacity()) {
      throw std::invalid_argument(
          "MixedProcessCore: initial load exceeds bin capacity");
    }
    if (spec.balls != balls_) {
      throw std::invalid_argument(
          "MixedProcessCore: class counts do not sum to the ball count");
    }
    initial_balls_ = balls_;
    initial_weight_ = total_weight_;
    last_departures_by_class_.assign(k, 0);
    rescan_stats();
    if constexpr (kShardedExec) {
      const std::uint32_t stripes = exec_.plan().stripe_count();
      acc_.resize(stripes);
      class_acc_.assign(static_cast<std::size_t>(stripes) * k, 0);
    }
  }

  /// Executes one synchronous round; returns end-of-round statistics.
  Stats step() { return run(1); }

  /// Executes `rounds` rounds; returns the stats of the last one (the
  /// current state, untouched, when rounds == 0).  Sharded rounds run
  /// through run_sharded (pipeline.hpp); trajectories are bit-identical
  /// for every split of the same rounds into run() calls.
  Stats run(std::uint64_t rounds) {
    if constexpr (kShardedExec) {
      if (rounds > 0) run_sharded(rounds);
    } else {
      for (std::uint64_t t = 0; t < rounds; ++t) step_sequential();
    }
    return current_stats();
  }

  // --- identity and load-shaped state ---------------------------------------

  [[nodiscard]] std::uint32_t bin_count() const noexcept {
    return static_cast<std::uint32_t>(loads_.size());
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] const LoadConfig& loads() const noexcept { return loads_; }
  [[nodiscard]] load_t max_load() const noexcept { return stats_.loads.max; }
  [[nodiscard]] std::uint32_t empty_bins() const noexcept {
    return stats_.loads.zeros;
  }

  [[nodiscard]] ball_count_t total_balls() const noexcept { return balls_; }
  [[nodiscard]] weighted_load_t total_weight() const noexcept {
    return total_weight_;
  }
  [[nodiscard]] weighted_load_t max_weighted_load() const noexcept {
    return stats_.max_w;
  }
  /// Max over capacity-bounded bins of load / capacity (0 when no bin
  /// has a finite capacity).
  [[nodiscard]] double max_utilization() const noexcept {
    return stats_.max_util;
  }
  /// Cumulative arrivals dropped at full bins since construction.
  [[nodiscard]] ball_count_t dropped_balls() const noexcept {
    return dropped_balls_;
  }
  [[nodiscard]] weighted_load_t dropped_weight() const noexcept {
    return dropped_weight_;
  }

  [[nodiscard]] std::uint32_t class_count() const noexcept {
    return static_cast<std::uint32_t>(weights_.class_weights.size());
  }
  [[nodiscard]] weight_t class_weight(std::uint32_t c) const {
    return weights_.class_weights[c];
  }
  /// Balls of class c currently in bin u.
  [[nodiscard]] load_t class_load(bin_index_t u, std::uint32_t c) const {
    return counts_[static_cast<std::size_t>(u) * class_count() + c];
  }
  [[nodiscard]] weighted_load_t weighted_load(bin_index_t u) const {
    return wload_[u];
  }
  [[nodiscard]] std::uint32_t rate(bin_index_t u) const { return rates_[u]; }
  [[nodiscard]] load_t capacity(bin_index_t u) const { return caps_[u]; }

  /// Per-class departure counts of the last executed round (the
  /// statistical oracle checks these are proportional to class shares).
  [[nodiscard]] const std::vector<ball_count_t>& last_departures_by_class()
      const noexcept {
    return last_departures_by_class_;
  }
  [[nodiscard]] ball_count_t last_departures() const noexcept {
    return last_departures_;
  }
  [[nodiscard]] ball_count_t last_drops() const noexcept {
    return last_drops_;
  }

  [[nodiscard]] const ShardPlan& plan() const noexcept
    requires kShardedExec
  {
    return exec_.plan();
  }

  [[nodiscard]] std::size_t resident_state_bytes() const noexcept {
    std::size_t bytes = loads_.capacity() * sizeof(load_t) +
                        wload_.capacity() * sizeof(weighted_load_t) +
                        counts_.capacity() * sizeof(load_t) +
                        rates_.capacity() * sizeof(std::uint32_t) +
                        caps_.capacity() * sizeof(load_t) +
                        scratch_.capacity() * sizeof(std::uint64_t);
    return bytes + buffers_.capacity_bytes() +
           acc_.capacity() * sizeof(StripeAcc) +
           class_acc_.capacity() * sizeof(ball_count_t);
  }

  /// Adversarial reassignment (Sect. 4.1 semantics, extended to the
  /// mixed regime): replaces the bin-major per-class count table
  /// wholesale.  The adversary relocates balls but cannot mint or
  /// destroy them, so per-class totals must match the current in-system
  /// population and every capacity bound must hold (the initial totals
  /// and drop ledgers are untouched, so conservation survives).  Counts
  /// as a faulty round, not a process round.
  void reassign(const std::vector<load_t>& new_counts) {
    const std::uint32_t n = bin_count();
    const std::uint32_t k = class_count();
    if (new_counts.size() != static_cast<std::size_t>(n) * k) {
      throw std::invalid_argument("reassign: count table shape mismatch");
    }
    for (std::uint32_t c = 0; c < k; ++c) {
      ball_count_t was = 0;
      ball_count_t now = 0;
      for (std::uint32_t u = 0; u < n; ++u) {
        was += counts_[static_cast<std::size_t>(u) * k + c];
        now += new_counts[static_cast<std::size_t>(u) * k + c];
      }
      if (was != now) {
        throw std::invalid_argument("reassign: per-class total changed");
      }
    }
    for (std::uint32_t u = 0; u < n; ++u) {
      load_t load = 0;
      for (std::uint32_t c = 0; c < k; ++c) {
        load += new_counts[static_cast<std::size_t>(u) * k + c];
      }
      if (caps_[u] != 0 && load > caps_[u]) {
        throw std::invalid_argument("reassign: bin capacity exceeded");
      }
    }
    counts_ = new_counts;
    recompute_from_counts();
    rescan_stats();
  }

  /// Serializes the complete trajectory state (DESIGN.md Sect. 7): the
  /// per-class census table, round, drop ledgers, and last-round
  /// reporting fields.  Counter streams draw by (seed, round, slot), so
  /// this closes the state; round-boundary only (the scatter buffers
  /// are provably drained there).
  void snapshot(serial::ByteWriter& w) const
    requires Stream::kScheduleFree
  {
    using W = serial::ByteWriter;
    w.reserve(5 * sizeof(std::uint64_t) +
              W::vec_bytes<ball_count_t>(last_departures_by_class_.size()) +
              W::vec_bytes<load_t>(counts_.size()));
    w.u64(round_);
    w.u64(dropped_balls_);
    w.u64(dropped_weight_);
    w.u64(last_departures_);
    w.u64(last_drops_);
    w.vec(last_departures_by_class_);
    w.vec(counts_);
  }

  /// Inverse of snapshot().  The target must be constructed from the
  /// same spec; the conservation law (initial == restored + dropped) is
  /// re-validated against the constructor's initial totals, so a
  /// payload from a different spec cannot slip through.
  void restore(serial::ByteReader& r)
    requires Stream::kScheduleFree
  {
    const std::uint64_t round = r.u64();
    const ball_count_t dropped_balls = r.u64();
    const weighted_load_t dropped_weight = r.u64();
    const ball_count_t last_departures = r.u64();
    const ball_count_t last_drops = r.u64();
    std::vector<ball_count_t> last_by_class;
    r.vec(last_by_class);
    std::vector<load_t> counts;
    r.vec(counts);
    if (counts.size() != counts_.size() ||
        last_by_class.size() != last_departures_by_class_.size()) {
      throw std::invalid_argument("restore: census shape mismatch");
    }
    counts_ = std::move(counts);
    dropped_balls_ = dropped_balls;
    dropped_weight_ = dropped_weight;
    last_departures_ = last_departures;
    last_drops_ = last_drops;
    last_departures_by_class_ = std::move(last_by_class);
    round_ = round;
    recompute_from_counts();
    if (initial_balls_ != balls_ + dropped_balls_ ||
        initial_weight_ != total_weight_ + dropped_weight_) {
      throw std::invalid_argument(
          "restore: conservation violated (payload from a different spec?)");
    }
    if (over_capacity()) {
      throw std::invalid_argument("restore: bin capacity exceeded");
    }
    rescan_stats();
  }

  /// Testing hook: recomputes every piece of incremental bookkeeping
  /// from the per-class counts and throws std::logic_error on drift --
  /// including the conservation law (initial totals == current totals
  /// + cumulative drops) and the capacity bound.
  void check_invariants() const {
    const std::uint32_t n = bin_count();
    const std::uint32_t k = class_count();
    ball_count_t balls = 0;
    weighted_load_t weight = 0;
    for (std::uint32_t u = 0; u < n; ++u) {
      load_t load = 0;
      weighted_load_t w = 0;
      for (std::uint32_t c = 0; c < k; ++c) {
        const load_t cnt = counts_[static_cast<std::size_t>(u) * k + c];
        load += cnt;
        w += static_cast<weighted_load_t>(cnt) * weights_.class_weights[c];
      }
      if (load != loads_[u]) {
        throw std::logic_error("MixedProcessCore: loads out of sync");
      }
      if (w != wload_[u]) {
        throw std::logic_error("MixedProcessCore: weighted loads drifted");
      }
      if (caps_[u] != 0 && load > caps_[u]) {
        throw std::logic_error("MixedProcessCore: bin exceeds its capacity");
      }
      balls += load;
      weight += w;
    }
    if (balls != balls_ || weight != total_weight_) {
      throw std::logic_error("MixedProcessCore: totals drifted");
    }
    if (initial_balls_ != balls_ + dropped_balls_ ||
        initial_weight_ != total_weight_ + dropped_weight_) {
      throw std::logic_error(
          "MixedProcessCore: conservation violated (initial != current "
          "+ dropped)");
    }
    // loads_ and wload_ match the census (checked above), so a fresh
    // scan of them is the census's statistics.
    const BinScan scan = scan_bins(0, n);
    if (scan.loads.max != stats_.loads.max ||
        scan.loads.zeros != stats_.loads.zeros || scan.max_w != stats_.max_w) {
      throw std::logic_error("MixedProcessCore: round stats out of sync");
    }
    if (!buffers_.drained()) {
      throw std::logic_error("MixedProcessCore: scatter buffer not drained");
    }
  }

 private:
  /// Round statistics of a set of bins: max load and empty bins, plus
  /// the max weighted load and max utilization over capped bins.
  struct BinScan {
    LoadScan loads;
    weighted_load_t max_w = 0;
    double max_util = 0.0;

    void merge(const BinScan& other) noexcept {
      loads.merge(other.loads);
      max_w = std::max(max_w, other.max_w);
      max_util = std::max(max_util, other.max_util);
    }
  };

  [[nodiscard]] Stats current_stats() const noexcept {
    return Stats{stats_.loads.max, stats_.loads.zeros, last_departures_,
                 last_drops_,      stats_.max_w,       balls_,
                 total_weight_};
  }

  /// Arrivals travel as one packed word: class in the high 32 bits,
  /// destination bin in the low 32.  Sorting-free: push order IS the
  /// canonical order (see header comment).
  [[nodiscard]] static constexpr std::uint64_t pack(std::uint32_t cls,
                                                    bin_index_t dest) noexcept {
    return (static_cast<std::uint64_t>(cls) << 32) | dest;
  }

  /// Picks which class the j-th departure of bin u takes, uniformly
  /// over the balls still in the bin: maps a draw x in [0, load) to
  /// the class whose count range contains x, then removes the ball.
  /// Touching only bin u's row, so stripe-exclusive under sharding.
  std::uint32_t take_class(bin_index_t u, std::uint32_t x) {
    const std::uint32_t k = class_count();
    load_t* row = &counts_[static_cast<std::size_t>(u) * k];
    std::uint32_t c = 0;
    while (c + 1 < k && x >= row[c]) {
      x -= row[c];
      ++c;
    }
    --row[c];
    --loads_[u];
    wload_[u] -= weights_.class_weights[c];
    return c;
  }

  /// Rebuilds the derived per-bin loads/weighted loads and the system
  /// totals from the per-class census (constructor / reassign / restore).
  void recompute_from_counts() {
    const std::uint32_t n = bin_count();
    const std::uint32_t k = class_count();
    balls_ = 0;
    total_weight_ = 0;
    for (std::uint32_t u = 0; u < n; ++u) {
      load_t load = 0;
      weighted_load_t w = 0;
      for (std::uint32_t c = 0; c < k; ++c) {
        const load_t cnt = counts_[static_cast<std::size_t>(u) * k + c];
        load += cnt;
        w += static_cast<weighted_load_t>(cnt) * weights_.class_weights[c];
      }
      loads_[u] = load;
      wload_[u] = w;
      balls_ += load;
      total_weight_ += w;
    }
  }

  /// True when some capacity-bounded bin holds more than its capacity.
  [[nodiscard]] bool over_capacity() const noexcept {
    for (std::uint32_t u = 0; u < bin_count(); ++u) {
      if (caps_[u] != 0 && loads_[u] > caps_[u]) return true;
    }
    return false;
  }

  [[nodiscard]] BinScan scan_bins(bin_index_t begin, bin_index_t end) const {
    BinScan scan;
    for (bin_index_t u = begin; u < end; ++u) {
      const load_t load = loads_[u];
      scan.loads.add(load);
      scan.max_w = std::max(scan.max_w, wload_[u]);
      if (caps_[u] != 0) {
        scan.max_util =
            std::max(scan.max_util, static_cast<double>(load) /
                                        static_cast<double>(caps_[u]));
      }
    }
    return scan;
  }

  void rescan_stats() { stats_ = scan_bins(0, bin_count()); }

  // --- the round passes ----------------------------------------------------

  /// The departure pass of round r over bins [begin, end): bin u
  /// releases min(load, rate) balls, each a class pick (take_class)
  /// then a uniform destination, counted into by_class[class] and
  /// handed to emit(dest, word) in ascending (u, j) order; returns the
  /// departure count.  Draws are scalar on purpose: the class-draw
  /// bound shrinks per pick, so no two draws share a plane.
  template <typename Emit>
  ball_count_t depart_range(std::uint64_t r, bin_index_t begin,
                            bin_index_t end, ball_count_t* by_class,
                            const Emit& emit) {
    const std::uint32_t n = bin_count();
    ball_count_t departures = 0;
    for (bin_index_t u = begin; u < end; ++u) {
      const std::uint32_t releases =
          static_cast<std::uint32_t>(std::min<load_t>(loads_[u], rates_[u]));
      for (std::uint32_t j = 0; j < releases; ++j) {
        const load_t remaining = loads_[u];
        std::uint32_t x;
        bin_index_t dest;
        if constexpr (Stream::kScheduleFree) {
          x = stream_.index(r, mixed_class_slot(j, u), remaining);
          dest = stream_.index(r, mixed_dest_slot(j, u), n);
        } else {
          x = stream_.rng().index(remaining);
          dest = stream_.rng().index(n);
        }
        const std::uint32_t cls = take_class(u, x);
        ++by_class[cls];
        emit(dest, pack(cls, dest));
      }
      departures += releases;
    }
    return departures;
  }

  /// The arrival pass: applies the packed words in order, dropping each
  /// arrival at a bin already at its capacity and adding its weight to
  /// `dropped_weight`; returns the number dropped.  Caller owns every
  /// destination bin's row.
  ball_count_t arrive(const std::vector<std::uint64_t>& words,
                      weighted_load_t& dropped_weight) {
    ball_count_t drops = 0;
    for (const std::uint64_t word : words) {
      const auto cls = static_cast<std::uint32_t>(word >> 32);
      const auto v = static_cast<bin_index_t>(word);
      if (caps_[v] != 0 && loads_[v] >= caps_[v]) {
        dropped_weight += weights_.class_weights[cls];
        ++drops;
        continue;
      }
      ++counts_[static_cast<std::size_t>(v) * class_count() + cls];
      ++loads_[v];
      wload_[v] += weights_.class_weights[cls];
    }
    return drops;
  }

  /// One sequential round: the departure pass over every bin into
  /// scratch_, the arrival pass in ascending global (u, j) order (==
  /// push order), then the round-end scan.
  void step_sequential() {
    std::fill(last_departures_by_class_.begin(),
              last_departures_by_class_.end(), 0);
    scratch_.clear();
    last_departures_ =
        depart_range(round_, 0, bin_count(), last_departures_by_class_.data(),
                     [&](bin_index_t, std::uint64_t word) {
                       scratch_.push_back(word);
                     });
    weighted_load_t dropped_w = 0;
    const ball_count_t drops = arrive(scratch_, dropped_w);
    balls_ -= drops;
    total_weight_ -= dropped_w;
    dropped_balls_ += drops;
    dropped_weight_ += dropped_w;
    last_drops_ = drops;
    if (drops != 0) obs::add(obs::Counter::kMixedDrops, drops);
    rescan_stats();
    ++round_;
  }

  // --- the sharded round ----------------------------------------------------

  /// Per-stripe accumulator, cache-line padded so stripe tasks never
  /// share a line (per-class departure counts live in class_acc_).
  /// Per-round fields are reset by each round's throw; cum_* fields
  /// accumulate across a run.
  struct alignas(64) StripeAcc {
    ball_count_t departures = 0;
    ball_count_t drops = 0;
    BinScan scan;
    ball_count_t cum_drops = 0;
    weighted_load_t cum_dropped_weight = 0;
  };

  using Rows = ShardRows<std::uint64_t>;

  /// Phase 1 (throw) for one stripe of round r: the departure pass over
  /// its own bins (class picks touch only owned rows), each packed
  /// (class, destination) word pushed to its target shard in ascending
  /// (u, j) order.  The class-draw bound reads only own-bin loads, whose
  /// value at throw start is the post-commit state of the previous
  /// round -- schedule-independent.
  void throw_stripe(std::uint32_t g, std::uint64_t r, Rows rows)
    requires kShardedExec
  {
    const std::uint32_t k = class_count();
    const ShardPlan& plan = exec_.plan();
    StripeAcc& acc = acc_[g];
    acc.drops = 0;
    acc.scan = BinScan{};
    ball_count_t* dep_by_class = &class_acc_[static_cast<std::size_t>(g) * k];
    std::fill(dep_by_class, dep_by_class + k, 0);
    acc.departures =
        depart_range(r, plan.stripe_begin_bin(g), plan.stripe_end_bin(g),
                     dep_by_class, [&](bin_index_t dest, std::uint64_t word) {
                       rows.push(dest, word);
                     });
  }

  /// Runs `rounds` >= 1 sharded rounds through the round driver
  /// (pipeline.hpp), then reduces the stripe accumulators once, in fixed
  /// stripe order: last round's stats from the per-round fields,
  /// cumulative drop accounting from the cum_* fields.  The driver
  /// hands each stripe's apply its arrivals in the canonical order, so
  /// capacity/drop decisions are bit-identical to the sequential
  /// sibling's.  class_acc_ rows are per-stripe and reset by each
  /// round's throw, so they hold the LAST round's per-class departures
  /// -- exactly what last_departures_by_class_ reports.
  void run_sharded(std::uint64_t rounds)
    requires kShardedExec
  {
    const std::uint32_t k = class_count();
    const std::uint32_t stripes = exec_.plan().stripe_count();
    for (StripeAcc& acc : acc_) {
      acc.cum_drops = 0;
      acc.cum_dropped_weight = 0;
    }
    const std::uint64_t r0 = round_;
    run_pipeline(
        exec_, rounds, buffers_,
        [&](std::uint32_t g, std::uint64_t i, Rows rows) {
          throw_stripe(g, r0 + i, rows);
        },
        NoChoose{},
        [&](std::uint32_t g, std::uint64_t,
            const std::vector<std::uint64_t>& words) {
          StripeAcc& acc = acc_[g];
          const ball_count_t drops = arrive(words, acc.cum_dropped_weight);
          acc.drops += drops;
          acc.cum_drops += drops;
        },
        [&](std::uint32_t g, std::uint64_t, bin_index_t begin,
            bin_index_t end) { acc_[g].scan.merge(scan_bins(begin, end)); });

    ball_count_t departures = 0;
    ball_count_t total_drops = 0;
    weighted_load_t total_dropped_w = 0;
    ball_count_t last_drops = 0;
    stats_ = BinScan{};
    std::fill(last_departures_by_class_.begin(),
              last_departures_by_class_.end(), 0);
    for (std::uint32_t g = 0; g < stripes; ++g) {
      const StripeAcc& acc = acc_[g];
      departures += acc.departures;
      last_drops += acc.drops;
      total_drops += acc.cum_drops;
      total_dropped_w += acc.cum_dropped_weight;
      stats_.merge(acc.scan);
      for (std::uint32_t c = 0; c < k; ++c) {
        last_departures_by_class_[c] +=
            class_acc_[static_cast<std::size_t>(g) * k + c];
      }
    }
    last_departures_ = departures;
    balls_ -= total_drops;
    total_weight_ -= total_dropped_w;
    dropped_balls_ += total_drops;
    dropped_weight_ += total_dropped_w;
    last_drops_ = last_drops;
    if (total_drops != 0) obs::add(obs::Counter::kMixedDrops, total_drops);
    round_ += rounds;
  }

  WeightProfile weights_;
  std::vector<std::uint32_t> rates_;
  std::vector<load_t> caps_;
  std::vector<load_t> counts_;  // bin-major per-class counts, n * k
  Stream stream_;
  Exec exec_;

  LoadConfig loads_;                    // per-bin ball counts (loads())
  std::vector<weighted_load_t> wload_;  // per-bin weighted loads

  ball_count_t balls_ = 0;
  weighted_load_t total_weight_ = 0;
  ball_count_t initial_balls_ = 0;
  weighted_load_t initial_weight_ = 0;
  ball_count_t dropped_balls_ = 0;
  weighted_load_t dropped_weight_ = 0;

  std::uint64_t round_ = 0;
  BinScan stats_;
  ball_count_t last_departures_ = 0;
  ball_count_t last_drops_ = 0;
  std::vector<ball_count_t> last_departures_by_class_;

  std::vector<std::uint64_t> scratch_;  // sequential (class, dest) words

  /// Packed arrivals per (stripe, target shard); sharded only.
  ScatterBuffers<std::uint64_t> buffers_;
  std::vector<StripeAcc> acc_;
  std::vector<ball_count_t> class_acc_;  // stripes x k departure counts
};

}  // namespace kernel
}  // namespace rbb

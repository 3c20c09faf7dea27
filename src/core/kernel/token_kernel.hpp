// The token-process core over the same (execution x RNG stream) policy
// set as BallProcessCore (DESIGN.md Sect. 5).
//
// Token state (per-bin queues, per-token positions) is shaped unlike a
// load vector, so the identity-tracking process gets its own core
// template -- but the policy axes are the same types: the sequential
// instantiations are plain single-threaded loops (xoshiro draws or the
// counter-RNG parity oracle), the sharded instantiation executes its
// rounds across all cores through pipeline.hpp's round driver.
//
// Queue state is the flat implicit-FIFO store of token_store.hpp: one
// contiguous token-link array plus per-bin {head, tail, count} headers,
// 8m + 12n bytes total -- no per-bin allocation, which is what lets
// sharded_scaling run token rows at n = 10^8.
//
// Enqueue order is not commutative, so determinism comes from a
// *canonical arrival order*: stripes are contiguous and walked in
// ascending bin order, the commit drains per-(stripe, shard) buffers in
// ascending source-stripe order, hence every bin receives its arrivals
// sorted by releasing bin -- for every thread count and shard size.
// The sequential instantiation realizes the same order with a plain
// loop, which is why the two are bit-identical (pinned by tests/par/).
//
// Queue policies (TokenOptions::policy): FIFO pops the oldest token,
// LIFO the newest, random the k-th oldest where k is drawn uniformly --
// under the counter stream from the dedicated pop-select slot plane
// (one draw per (round, releasing bin), schedule-free), under the
// sequential stream from the process rng interleaved with the
// destination draws exactly as in TokenProcess.  The random removal is
// order-preserving (remove the k-th in arrival order), unlike the
// legacy BallQueue's swap-remove; FIFO and LIFO sequential-stream
// trajectories are draw-for-draw identical to TokenProcess on the
// complete graph (pinned by tests/par/token_flat_test.cpp).
//
// Scope: the complete graph, per-token progress counters and OPTIONAL
// per-token visited bitsets (cover-time experiments; m*n bits -- fine
// at experiment sizes, petabyte-scale at mega n, so visits default
// off).  General graphs and delay histograms remain on the sequential
// TokenProcess (core/token_process.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/kernel/exec.hpp"
#include "core/kernel/pipeline.hpp"
#include "core/kernel/stream.hpp"
#include "core/kernel/token_store.hpp"
#include "core/token_process.hpp"  // QueuePolicy, identity_placement
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/types.hpp"

namespace rbb::kernel {

/// Instrumentation and policy knobs of the token core.
struct TokenOptions {
  /// Per-token visited bitsets + cover rounds (Corollary 1 cover-time
  /// measurements).  Costs m*n bits -- leave off beyond ~10^5 bins.
  bool track_visits = false;
  /// Which token a non-empty bin releases each round.
  QueuePolicy policy = QueuePolicy::kFifo;
};

template <typename Exec, typename StreamP = CounterStream>
class TokenProcessCore {
 public:
  using Stream = StreamP;
  static constexpr bool kShardedExec = Exec::kSharded;

  static_assert(!kShardedExec || Stream::kScheduleFree,
                "sharded execution requires a schedule-free (counter) RNG "
                "stream");

  static constexpr std::uint64_t kNotCovered =
      std::numeric_limits<std::uint64_t>::max();

  /// `start_bin[i]` is the initial bin of token i; co-located tokens
  /// enqueue in token-id order (as in TokenProcess).
  TokenProcessCore(std::uint32_t bins, std::vector<bin_index_t> start_bin,
                   Stream stream, ExecOptions exec_options = {},
                   TokenOptions options = {})
      : bins_(bins),
        stream_(std::move(stream)),
        exec_(bins == 0 ? 1 : bins, exec_options),
        options_(options),
        store_(bins == 0 ? 1 : bins,
               static_cast<std::uint32_t>(start_bin.size()),
               options.policy),
        progress_(start_bin.size(), 0) {
    if (bins_ == 0) {
      throw std::invalid_argument("TokenProcessCore: bins == 0");
    }
    if (start_bin.empty()) {
      throw std::invalid_argument("TokenProcessCore: no tokens");
    }
    for (const bin_index_t bin : start_bin) {
      if (bin >= bins_) {
        throw std::invalid_argument(
            "TokenProcessCore: start bin out of range");
      }
    }
    if (options_.track_visits) {
      words_per_token_ = (bins_ + 63) / 64;
      visited_.assign(static_cast<std::size_t>(words_per_token_) *
                          start_bin.size(),
                      0);
      visited_count_.assign(start_bin.size(), 0);
      cover_round_.assign(start_bin.size(), kNotCovered);
    }
    if constexpr (kShardedExec) {
      const ShardPlan& plan = exec_.plan();
      buffers_.resize(static_cast<std::size_t>(plan.stripe_count()) *
                      plan.shard_count());
      acc_.resize(plan.stripe_count());
    }
    rebuild_queues(start_bin);
  }

  /// One synchronous round: every non-empty bin releases one token per
  /// the queue policy.
  void step() { run(1); }

  /// Runs `rounds` rounds (none when rounds == 0).  Sharded rounds run
  /// through run_sharded (pipeline.hpp); trajectories are bit-identical
  /// for every split of the same rounds into run() calls.
  void run(std::uint64_t rounds) {
    if (rounds == 0) return;
    if constexpr (kShardedExec) {
      run_sharded(rounds);
    } else {
      for (std::uint64_t t = 0; t < rounds; ++t) step_sequential();
    }
  }

  /// Runs until every token has covered all bins or `max_rounds`
  /// elapse; returns the global cover time (rounds from construction)
  /// if reached.  Requires track_visits.
  std::optional<std::uint64_t> run_until_covered(std::uint64_t max_rounds) {
    if (!options_.track_visits) {
      throw std::logic_error("run_until_covered: visit tracking disabled");
    }
    while (!all_covered()) {
      if (round_ >= max_rounds) return std::nullopt;
      step();
    }
    return global_cover_time();
  }

  [[nodiscard]] std::uint32_t bin_count() const noexcept { return bins_; }
  [[nodiscard]] std::uint32_t token_count() const noexcept {
    return store_.token_count();
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] QueuePolicy policy() const noexcept {
    return options_.policy;
  }

  /// Load of bin u (queue length).
  [[nodiscard]] load_t load(bin_index_t u) const {
    return static_cast<load_t>(store_.count(u));
  }
  /// Maximum load over all bins.  Sharded: O(1), maintained by the
  /// commit rescan.  Sequential: computed lazily on first query after a
  /// round (as in TokenProcess), so an unobserved round pays no O(n)
  /// stats pass -- this keeps the seq-counter perf rows an honest
  /// RNG-swap measurement.
  [[nodiscard]] load_t max_load() const {
    refresh_stats();
    return max_load_;
  }
  /// Number of empty bins; same cost contract as max_load().
  [[nodiscard]] std::uint32_t empty_bins() const {
    refresh_stats();
    return empty_;
  }
  /// Per-bin load snapshot (off the hot path; O(n)).
  [[nodiscard]] LoadConfig loads() const {
    LoadConfig loads(bins_, 0);
    for (bin_index_t u = 0; u < bins_; ++u) {
      loads[u] = static_cast<load_t>(store_.count(u));
    }
    return loads;
  }

  /// Current bin of token i.
  [[nodiscard]] bin_index_t token_bin(std::uint32_t token) const {
    return store_.bin_of(token);
  }
  /// Walk steps token i has performed (times it was released).
  [[nodiscard]] std::uint64_t progress(std::uint32_t token) const {
    return progress_[token];
  }
  /// Minimum progress over all tokens; O(m).
  [[nodiscard]] std::uint64_t min_progress() const {
    std::uint64_t lo = progress_.empty() ? 0 : progress_[0];
    for (const std::uint64_t p : progress_) lo = std::min(lo, p);
    return lo;
  }

  /// Tokens of bin u in arrival order, oldest first (testing /
  /// inspection; allocates -- never on the hot path).
  [[nodiscard]] std::vector<std::uint32_t> queue_snapshot(
      bin_index_t u) const {
    return store_.snapshot(u);
  }

  /// Distinct bins token i has visited.  Requires track_visits.
  [[nodiscard]] std::uint32_t visited_count(std::uint32_t token) const {
    require_visits("visited_count");
    return visited_count_[token];
  }
  /// Round by which token i had visited all bins, or kNotCovered.
  /// Requires track_visits.
  [[nodiscard]] std::uint64_t cover_round(std::uint32_t token) const {
    require_visits("cover_round");
    return cover_round_[token];
  }
  /// True when every token has visited every bin.  Requires
  /// track_visits: without it the answer would be a silent, permanent
  /// "no" and a run-until-covered loop would burn its whole round cap.
  [[nodiscard]] bool all_covered() const {
    require_visits("all_covered");
    return covered_tokens_ == token_count();
  }
  /// max over tokens of cover_round (kNotCovered unless all_covered()).
  /// Requires track_visits.
  [[nodiscard]] std::uint64_t global_cover_time() const {
    if (!all_covered()) return kNotCovered;
    std::uint64_t worst = 0;
    for (const std::uint64_t r : cover_round_) worst = std::max(worst, r);
    return worst;
  }

  [[nodiscard]] const ShardPlan& plan() const noexcept
    requires kShardedExec
  {
    return exec_.plan();
  }

  /// Bytes of resident kernel state (queue store, progress, visit
  /// bitsets, scratch and scatter buffers at their current capacity).
  /// Feeds the memory column of sharded_scaling.
  [[nodiscard]] std::size_t resident_state_bytes() const noexcept {
    std::size_t bytes =
        store_.resident_bytes() +
        progress_.capacity() * sizeof(std::uint64_t) +
        visited_.capacity() * sizeof(std::uint64_t) +
        visited_count_.capacity() * sizeof(std::uint32_t) +
        cover_round_.capacity() * sizeof(std::uint64_t) +
        seq_slots_.capacity() * sizeof(bin_index_t) +
        seq_tokens_.capacity() * sizeof(std::uint32_t) +
        seq_dests_.capacity() * sizeof(bin_index_t);
    return bytes + buffers_.capacity_bytes() +
           acc_.capacity() * sizeof(StripeAcc);
  }

  /// Adversarial reassignment (Sect. 4.1 semantics, as in
  /// TokenProcess::reassign): every token i moves to new_bin[i]; queues
  /// are rebuilt in token-id order; progress persists; the reassigned
  /// position counts as a visit.
  void reassign(const std::vector<bin_index_t>& new_bin) {
    if (new_bin.size() != progress_.size()) {
      throw std::invalid_argument("reassign: token count mismatch");
    }
    for (const bin_index_t bin : new_bin) {
      if (bin >= bins_) {
        throw std::invalid_argument("reassign: bin out of range");
      }
    }
    rebuild_queues(new_bin);
  }

  /// Serializes the complete trajectory state (DESIGN.md Sect. 7): the
  /// raw flat-store arrays, per-token progress, round, and (when
  /// enabled) the visit-tracking bookkeeping.  Counter streams draw by
  /// (seed, round, slot), so this closes the state; round-boundary only
  /// (the scatter buffers are provably drained there).
  void snapshot(serial::ByteWriter& w) const
    requires Stream::kScheduleFree
  {
    w.u64(round_);
    store_.save_state(w);
    w.vec(progress_);
    w.u32(options_.track_visits ? 1u : 0u);
    if (options_.track_visits) {
      w.vec(visited_);
      w.vec(visited_count_);
      w.vec(cover_round_);
      w.u32(covered_tokens_);
    }
  }

  /// Inverse of snapshot(); the target must be constructed with the
  /// same bins/tokens/policy/options (std::invalid_argument otherwise).
  void restore(serial::ByteReader& r)
    requires Stream::kScheduleFree
  {
    const std::uint64_t round = r.u64();
    store_.load_state(r);
    std::vector<std::uint64_t> progress;
    r.vec(progress);
    if (progress.size() != progress_.size()) {
      throw std::invalid_argument("restore: token count mismatch");
    }
    const bool track_visits = r.u32() != 0;
    if (track_visits != options_.track_visits) {
      throw std::invalid_argument("restore: visit-tracking mismatch");
    }
    if (track_visits) {
      std::vector<std::uint64_t> visited;
      std::vector<std::uint32_t> visited_count;
      std::vector<std::uint64_t> cover_round;
      r.vec(visited);
      r.vec(visited_count);
      r.vec(cover_round);
      if (visited.size() != visited_.size() ||
          visited_count.size() != visited_count_.size() ||
          cover_round.size() != cover_round_.size()) {
        throw std::invalid_argument("restore: visit-tracking shape mismatch");
      }
      visited_ = std::move(visited);
      visited_count_ = std::move(visited_count);
      cover_round_ = std::move(cover_round);
      covered_tokens_ = r.u32();
    }
    progress_ = std::move(progress);
    round_ = round;
    rescan_stats();
    check_invariants();
  }

  /// Testing hook: queue/token-position consistency; throws
  /// std::logic_error on violation.  Walks the flat lists in place --
  /// no per-bin heap copy.
  void check_invariants() const {
    std::uint64_t queued = 0;
    for (bin_index_t u = 0; u < bins_; ++u) {
      const std::uint32_t expect = store_.count(u);
      std::uint32_t walked = 0;
      std::uint32_t last = FlatTokenStore::kNil;
      for (std::uint32_t t = store_.peek_head(u);
           t != FlatTokenStore::kNil && walked <= expect;
           t = store_.next(t)) {
        if (store_.bin_of(t) != u) {
          throw std::logic_error(
              "TokenProcessCore: queue/token position mismatch");
        }
        last = t;
        ++walked;
      }
      if (walked != expect) {
        throw std::logic_error(
            "TokenProcessCore: queue length drifted (or list cycle)");
      }
      if (expect > 0 && last != store_.tail(u)) {
        throw std::logic_error("TokenProcessCore: tail out of sync");
      }
      queued += walked;
    }
    if (queued != progress_.size()) {
      throw std::logic_error("TokenProcessCore: token count drifted");
    }
    if (!buffers_.drained()) {
      throw std::logic_error("TokenProcessCore: scatter buffer not drained");
    }
  }

 private:
  struct Arrival {
    bin_index_t dest;
    std::uint32_t token;
  };

  struct alignas(64) StripeAcc {
    load_t max = 0;
    std::uint32_t zeros = 0;
    std::uint32_t newly_covered = 0;
    std::uint32_t cum_newly_covered = 0;  // across a run
  };

  /// Scatter loops prefetch this many arrivals ahead: at mega n the
  /// store out-sizes the cache and each push touches a random header
  /// (and, appending, a random tail slot).
  static constexpr std::uint32_t kPrefetchAhead = 16;

  /// Marks `bin` visited by `token`; returns true when this visit
  /// completed the token's coverage (caller owns the covered counter so
  /// the sharded commit can accumulate per stripe).
  bool mark_visited(std::uint32_t token, bin_index_t bin,
                    std::uint64_t cover_at) {
    if (!options_.track_visits) return false;
    std::uint64_t& word =
        visited_[static_cast<std::size_t>(token) * words_per_token_ +
                 bin / 64];
    const std::uint64_t bit = 1ULL << (bin % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    if (++visited_count_[token] == bins_ &&
        cover_round_[token] == kNotCovered) {
      cover_round_[token] = cover_at;
      return true;
    }
    return false;
  }

  /// The releasing pop of bin u under the counter stream: FIFO/LIFO pop
  /// the head, random removes the k-th oldest with k drawn from the
  /// pop-select slot plane -- a pure function of (round, u), so any
  /// stripe can release its own bins in any schedule.
  std::uint32_t release_counter(bin_index_t u, std::uint64_t r) {
    if (options_.policy == QueuePolicy::kRandom) {
      const std::uint32_t size = store_.count(u);
      return store_.pop_at(u, stream_.index(r, pop_select_slot(u), size));
    }
    return store_.pop_front(u);
  }

  /// Prefetches the head slot (the pop target) and progress counter of
  /// bin `u` if it will release; headers themselves stream sequentially
  /// through the scan, so peeking ahead is cache-hot.
  void prefetch_release(bin_index_t u) const {
    const std::uint32_t h = store_.peek_head(u);
    if (h != FlatTokenStore::kNil) {
      store_.prefetch_slot(h);
      __builtin_prefetch(&progress_[h], 1);
    }
  }

  void step_sequential() {
    const std::uint64_t r = round_;
    seq_slots_.clear();
    seq_tokens_.clear();
    seq_dests_.clear();
    if constexpr (Stream::kScheduleFree) {
      for (bin_index_t u = 0; u < bins_; ++u) {
        if (u + kPrefetchAhead < bins_) prefetch_release(u + kPrefetchAhead);
        if (store_.empty(u)) continue;
        const std::uint32_t token = release_counter(u, r);
        ++progress_[token];
        seq_slots_.push_back(u);
        seq_tokens_.push_back(token);
      }
      // One gathered draw plane materializes every move's destination
      // (slot = releasing bin), bit-identical to the per-call draws.
      seq_dests_.resize(seq_slots_.size());
      stream_.fill_gather(r, seq_slots_.data(), 0, seq_slots_.size(), bins_,
                          seq_dests_.data());
    } else {
      // Sequential xoshiro draws: the random-policy pop draw and the
      // destination draw interleave per releasing bin, draw-for-draw as
      // in TokenProcess on the complete graph; arrivals apply after the
      // walk (later bins see pre-move queues, the synchronous-round
      // convention both realize).
      Rng& rng = stream_.rng();
      for (bin_index_t u = 0; u < bins_; ++u) {
        if (u + kPrefetchAhead < bins_) prefetch_release(u + kPrefetchAhead);
        if (store_.empty(u)) continue;
        const std::uint32_t token =
            options_.policy == QueuePolicy::kRandom
                ? store_.pop_at(u, static_cast<std::uint32_t>(
                                       rng.below(store_.count(u))))
                : store_.pop_front(u);
        ++progress_[token];
        seq_tokens_.push_back(token);
        seq_dests_.push_back(rng.index(bins_));
      }
    }
    const std::size_t moves = seq_dests_.size();
    for (std::size_t i = 0; i < moves; ++i) {
      if (i + kPrefetchAhead < moves) {
        store_.prefetch_bin(seq_dests_[i + kPrefetchAhead]);
        store_.prefetch_slot(seq_tokens_[i + kPrefetchAhead]);
      }
      const bin_index_t dest = seq_dests_[i];
      const std::uint32_t token = seq_tokens_[i];
      store_.push(dest, token);
      if (mark_visited(token, dest, r + 1)) {
        ++covered_tokens_;
      }
    }
    stats_dirty_ = true;  // recomputed lazily on the next stats query
    ++round_;
  }

  /// Phase 1 (throw) for one stripe of round r: releases the stripe's
  /// queue heads in ascending bin order into its rows of `bufs` (the
  /// parity-selected buffer base), so every buffer is filled sorted by
  /// releasing bin.  A token sits in exactly one queue and a stripe
  /// pops only its own bins' lists, so the store and progress_ writes
  /// are stripe-exclusive.
  void throw_stripe(std::uint32_t g, std::uint64_t r,
                    std::vector<Arrival>* bufs)
    requires kShardedExec
  {
    const obs::ScopedPhase phase_span(obs::Phase::kThrow);
    const std::uint32_t n = bins_;
    const ShardPlan& plan = exec_.plan();
    std::vector<Arrival>* row =
        bufs + static_cast<std::size_t>(g) * plan.shard_count();
    const bin_index_t begin = plan.stripe_begin_bin(g);
    const bin_index_t end = plan.stripe_end_bin(g);
    // Releasing bins and their tokens bank into stack chunks; each
    // flush draws the chunk's destinations from one gathered plane.
    // Ascending-u push order per buffer is preserved, so the
    // canonical arrival order is unchanged.
    bin_index_t slot_buf[kDrawChunk];
    std::uint32_t token_buf[kDrawChunk];
    bin_index_t dest_buf[kDrawChunk];
    std::uint32_t pending = 0;
    const auto flush = [&] {
      obs::add(obs::Counter::kChunkFlushes);
      stream_.fill_gather(r, slot_buf, 0, pending, n, dest_buf);
      for (std::uint32_t i = 0; i < pending; ++i) {
        const bin_index_t dest = dest_buf[i];
        row[plan.shard_of(dest)].push_back(Arrival{dest, token_buf[i]});
      }
      pending = 0;
    };
    for (bin_index_t u = begin; u < end; ++u) {
      if (u + kPrefetchAhead < end) prefetch_release(u + kPrefetchAhead);
      if (store_.empty(u)) continue;
      const std::uint32_t token = release_counter(u, r);
      ++progress_[token];
      slot_buf[pending] = u;
      token_buf[pending] = token;
      if (++pending == kDrawChunk) flush();
    }
    if (pending > 0) flush();
  }

  /// Phase 2 (commit) for one stripe: drains `bufs` buffers addressed
  /// to its shards in ascending source-stripe order so every bin
  /// enqueues its arrivals sorted by releasing bin -- the canonical
  /// order the sequential sibling realizes by construction.  A token
  /// arrives in exactly one buffer and a stripe pushes only into its
  /// own shards' lists, so the store and visited_ writes are
  /// stripe-exclusive.
  void commit_stripe(std::uint32_t g, std::uint64_t r,
                     std::vector<Arrival>* bufs)
    requires kShardedExec
  {
    const obs::ScopedPhase phase_span(obs::Phase::kCommit);
    const ShardPlan& plan = exec_.plan();
    const std::uint32_t shard_count = plan.shard_count();
    StripeAcc& acc = acc_[g];
    acc.max = 0;
    acc.zeros = 0;
    acc.newly_covered = 0;
    for (std::uint32_t s = plan.stripe_begin_shard(g);
         s < plan.stripe_end_shard(g); ++s) {
      for (std::uint32_t src = 0; src < plan.stripe_count(); ++src) {
        std::vector<Arrival>& buf =
            bufs[static_cast<std::size_t>(src) * shard_count + s];
        const std::size_t arrivals = buf.size();
        for (std::size_t i = 0; i < arrivals; ++i) {
          if (i + kPrefetchAhead < arrivals) {
            const Arrival& ahead = buf[i + kPrefetchAhead];
            store_.prefetch_bin(ahead.dest);
            store_.prefetch_slot(ahead.token);
          }
          const Arrival& arrival = buf[i];
          store_.push(arrival.dest, arrival.token);
          if (mark_visited(arrival.token, arrival.dest, r + 1)) {
            ++acc.newly_covered;
          }
        }
        buf.clear();
      }
      const std::uint64_t rs0 = obs::enabled() ? obs::now_ns() : 0;
      for (bin_index_t u = plan.shard_begin(s); u < plan.shard_end(s); ++u) {
        const auto load = static_cast<load_t>(store_.count(u));
        if (load == 0) {
          ++acc.zeros;
        } else if (load > acc.max) {
          acc.max = load;
        }
      }
      if (rs0 != 0) {
        const std::uint64_t rs1 = obs::now_ns();
        obs::add_phase_ns(obs::Phase::kRescan, rs1 - rs0);
        obs::record_span("rescan", rs0, rs1);
      }
    }
    acc.cum_newly_covered += acc.newly_covered;
  }

  /// Runs `rounds` >= 1 sharded rounds through the round driver
  /// (pipeline.hpp), then reduces the stripe accumulators once, in fixed
  /// stripe order.  The token-store happens-before chain across a team
  /// is the epoch protocol: a pop (throw, own bins) is ordered before
  /// the committer's push of the same token by the released/acquired
  /// throw_done epoch.
  void run_sharded(std::uint64_t rounds)
    requires kShardedExec
  {
    for (StripeAcc& acc : acc_) acc.cum_newly_covered = 0;
    const std::uint64_t r0 = round_;
    using Bufs = std::vector<Arrival>*;
    run_pipeline(
        exec_.stripes(), exec_.plan().stripe_count(), rounds,
        /*has_choose=*/false, buffers_,
        [&](std::uint32_t g, std::uint64_t i, Bufs bufs) {
          throw_stripe(g, r0 + i, bufs);
        },
        [](std::uint32_t, std::uint64_t, Bufs) {},
        [&](std::uint32_t g, std::uint64_t i, Bufs bufs) {
          commit_stripe(g, r0 + i, bufs);
        });

    max_load_ = 0;
    empty_ = 0;
    for (const StripeAcc& acc : acc_) {
      max_load_ = std::max(max_load_, acc.max);
      empty_ += acc.zeros;
      covered_tokens_ += acc.cum_newly_covered;
    }
    stats_dirty_ = false;  // the commit rescan just paid for them
    round_ += rounds;
  }

  void rebuild_queues(const std::vector<bin_index_t>& placement) {
    store_.rebuild(placement);
    for (std::uint32_t token = 0; token < token_count(); ++token) {
      if (mark_visited(token, placement[token], round_)) {
        ++covered_tokens_;
      }
    }
    rescan_stats();
  }

  void rescan_stats() const {
    max_load_ = 0;
    empty_ = 0;
    for (bin_index_t u = 0; u < bins_; ++u) {
      const auto load = static_cast<load_t>(store_.count(u));
      if (load == 0) {
        ++empty_;
      } else if (load > max_load_) {
        max_load_ = load;
      }
    }
    stats_dirty_ = false;
  }

  /// Pays the O(n) stats pass only when a query needs it (sequential
  /// path; the sharded commit keeps the values fresh for free).
  void refresh_stats() const {
    if (stats_dirty_) rescan_stats();
  }

  void require_visits(const char* what) const {
    if (!options_.track_visits) {
      throw std::logic_error(std::string(what) +
                             ": visit tracking disabled");
    }
  }

  std::uint32_t bins_;
  Stream stream_;
  Exec exec_;
  TokenOptions options_;
  FlatTokenStore store_;
  std::vector<std::uint64_t> progress_;
  std::uint64_t round_ = 0;
  // Lazily maintained stats (refresh_stats); mutable so const queries
  // can pay the rescan on demand.
  mutable load_t max_load_ = 0;
  mutable std::uint32_t empty_ = 0;
  mutable bool stats_dirty_ = false;

  // Visit tracking (empty when !options_.track_visits).
  std::uint32_t words_per_token_ = 0;
  std::vector<std::uint64_t> visited_;
  std::vector<std::uint32_t> visited_count_;
  std::vector<std::uint64_t> cover_round_;
  std::uint32_t covered_tokens_ = 0;

  // Sequential-path scratch: releasing bins (counter path), their
  // tokens, and the destinations, index-aligned.
  std::vector<bin_index_t> seq_slots_;
  std::vector<std::uint32_t> seq_tokens_;
  std::vector<bin_index_t> seq_dests_;

  /// Arrivals per (stripe, target shard), ascending releasing bin
  /// within each row.  Sharded only.
  ScatterBuffers<Arrival> buffers_;
  std::vector<StripeAcc> acc_;
};

/// Sequential xoshiro instantiation of the flat token core: the
/// production single-thread token kernel.  FIFO and LIFO trajectories
/// are draw-for-draw identical to the classic TokenProcess on the
/// complete graph (pinned by tests/par/token_flat_test.cpp); random
/// differs only in the post-removal queue order (order-preserving
/// versus legacy swap-remove).
class SequentialTokenProcess
    : public TokenProcessCore<SequentialExecution, SequentialStream> {
 public:
  SequentialTokenProcess(std::uint32_t bins,
                         std::vector<bin_index_t> start_bin, Rng rng,
                         TokenOptions options = {})
      : TokenProcessCore(bins, std::move(start_bin), SequentialStream(rng),
                         {}, options) {}
};

}  // namespace rbb::kernel

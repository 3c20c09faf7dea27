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
// contiguous array of {next, bin, walks} token slots plus per-bin
// {head, tail, count} headers, 16m + 12n bytes total, progress
// included -- no per-bin allocation, which is what lets sharded_scaling
// run token rows at n = 10^8.
//
// Enqueue order is not commutative, so determinism comes from a
// *canonical arrival order*: stripes are contiguous and walked in
// ascending bin order, and pipeline.hpp's run_pipeline drains the
// per-(stripe, shard) buffers in ascending source-stripe order, hence
// every bin receives its arrivals sorted by releasing bin -- for every
// thread count and shard size.
// The sequential instantiation realizes the same order with a plain
// loop, which is why the two are bit-identical (pinned by tests/par/).
//
// Every round, sequential or sharded, is two passes, like the per-ball
// rounds of ball_kernel.hpp.  The release pass (release_range) banks a
// bin range's releasing bins branch-free, pops them, draws their
// destinations as one block (fill_indices for FIFO / LIFO on the
// complete graph, a gathered plane on the counter stream, neighbour
// draws in bin order on a graph; the xoshiro random policy interleaves
// each pop draw with its destination draw); each pop advances its
// token's progress in the slot it holds.  The push pass (push_moves)
// applies arrivals with the policy orientation fixed at compile time,
// prefetching 16 moves ahead.  The sequential round runs both over
// [0, n); a sharded stripe releases kDrawChunk-bin blocks into stack
// buffers, and each commit pushes one buffer.  Pops and pushes are
// branch-free splices (token_store.hpp).
//
// Queue policies (TokenOptions::policy): FIFO pops the oldest token,
// LIFO the newest, random the k-th oldest where k is drawn uniformly --
// under the counter stream from the dedicated pop-select slot plane
// (one draw per (round, releasing bin), schedule-free), under the
// sequential stream from the process rng, interleaved per releasing
// bin with its destination draw.  The random removal is
// order-preserving (remove the k-th in arrival order), so every pop is
// a uniform member of the queue whatever the leftover order.
//
// Scope: every instantiation has per-token progress counters and
// OPTIONAL per-token visited bitsets (cover-time experiments; m*n bits
// -- fine at experiment sizes, petabyte-scale at mega n, so visits
// default off).  The sequential xoshiro instantiation alone adds
// general graphs (uniform-neighbor destinations) and per-release delay
// histograms; the counter-stream cores reject both at construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/config.hpp"
#include "core/kernel/exec.hpp"
#include "core/kernel/pipeline.hpp"
#include "core/kernel/stream.hpp"
#include "core/kernel/token_store.hpp"
#include "core/token_process.hpp"  // QueuePolicy, identity_placement
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "support/stats.hpp"
#include "support/types.hpp"

namespace rbb::kernel {

/// Instrumentation and policy knobs of the token core.
struct TokenOptions {
  /// Per-token visited bitsets + cover rounds (Corollary 1 cover-time
  /// measurements).  Costs m*n bits -- leave off beyond ~10^5 bins.
  bool track_visits = false;
  /// Which token a non-empty bin releases each round.
  QueuePolicy policy = QueuePolicy::kFifo;
  /// Released tokens move to a uniform neighbor of their bin instead of
  /// a uniform bin (nullptr = complete graph).  Sequential stream only.
  const Graph* graph = nullptr;
  /// Per-release waiting-time histogram (delay_histogram()); costs one
  /// round_t per token.  Sequential stream only.
  bool track_delays = false;
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
  /// enqueue in token-id order.
  TokenProcessCore(std::uint32_t bins, std::vector<bin_index_t> start_bin,
                   Stream stream, ExecOptions exec_options = {},
                   TokenOptions options = {})
      : bins_(bins),
        stream_(std::move(stream)),
        exec_(bins == 0 ? 1 : bins, exec_options),
        options_(options),
        store_(bins == 0 ? 1 : bins,
               static_cast<std::uint32_t>(start_bin.size()),
               options.policy) {
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
    validate_graph<Stream>(options_.graph, bins_, "TokenProcessCore");
    if constexpr (Stream::kScheduleFree) {
      if (options_.track_delays) {
        throw std::invalid_argument(
            "TokenProcessCore: delay histograms need the sequential stream "
            "(the counter-stream cores keep no per-token arrival round)");
      }
    }
    if (options_.track_delays) arrival_round_.resize(start_bin.size());
    if (options_.track_visits) {
      words_per_token_ = (bins_ + 63) / 64;
      visited_.assign(static_cast<std::size_t>(words_per_token_) *
                          start_bin.size(),
                      0);
      visited_count_.assign(start_bin.size(), 0);
      cover_round_.assign(start_bin.size(), kNotCovered);
    }
    if constexpr (kShardedExec) acc_.resize(exec_.plan().stripe_count());
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
  /// round, so an unobserved round pays no O(n) stats pass -- this
  /// keeps the seq-counter perf rows an honest RNG-swap measurement.
  [[nodiscard]] load_t max_load() const {
    refresh_stats();
    return stats_.max;
  }
  /// Number of empty bins; same cost contract as max_load().
  [[nodiscard]] std::uint32_t empty_bins() const {
    refresh_stats();
    return stats_.zeros;
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
    return store_.walks(token);
  }
  /// Minimum progress over all tokens; O(m).
  [[nodiscard]] std::uint64_t min_progress() const {
    std::uint64_t lo = store_.walks(0);
    for (std::uint32_t t = 1; t < token_count(); ++t) {
      lo = std::min(lo, store_.walks(t));
    }
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

  /// Waiting-time histogram: each release records the complete rounds
  /// the token spent enqueued before the releasing round (0 = released
  /// on its first opportunity).  Under FIFO the paper bounds every
  /// delay by O(log n) w.h.p. (Sect. 1.1).  Requires track_delays.
  [[nodiscard]] const Histogram& delay_histogram() const {
    if (!options_.track_delays) {
      throw std::logic_error("delay_histogram: delay tracking disabled");
    }
    return delays_;
  }

  [[nodiscard]] const ShardPlan& plan() const noexcept
    requires kShardedExec
  {
    return exec_.plan();
  }

  /// Bytes of resident kernel state (queue store with progress, visit
  /// bitsets, arrival rounds, scratch and scatter buffers at their
  /// current capacity).  Feeds the memory column of sharded_scaling.
  [[nodiscard]] std::size_t resident_state_bytes() const noexcept {
    std::size_t bytes =
        store_.resident_bytes() +
        arrival_round_.capacity() * sizeof(round_t) +
        visited_.capacity() * sizeof(std::uint64_t) +
        visited_count_.capacity() * sizeof(std::uint32_t) +
        cover_round_.capacity() * sizeof(std::uint64_t) +
        seq_slots_.capacity() * sizeof(bin_index_t) +
        seq_tokens_.capacity() * sizeof(std::uint32_t) +
        seq_dests_.capacity() * sizeof(bin_index_t);
    return bytes + buffers_.capacity_bytes() +
           acc_.capacity() * sizeof(StripeAcc);
  }

  /// Adversarial reassignment (Sect. 4.1): every token i moves to
  /// new_bin[i]; queues are rebuilt in token-id order; progress
  /// persists; the reassigned position counts as a visit and restarts
  /// the token's arrival clock.
  void reassign(const std::vector<bin_index_t>& new_bin) {
    if (new_bin.size() != token_count()) {
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
  /// raw flat-store arrays with per-token progress, round, and (when
  /// enabled) the visit-tracking bookkeeping.  Counter streams draw by
  /// (seed, round, slot), so this closes the state; round-boundary only
  /// (the scatter buffers are provably drained there).
  void snapshot(serial::ByteWriter& w) const
    requires Stream::kScheduleFree
  {
    using W = serial::ByteWriter;
    std::size_t bytes =
        sizeof(std::uint64_t) + store_.state_bytes() + sizeof(std::uint32_t);
    if (options_.track_visits) {
      bytes += W::vec_bytes<std::uint64_t>(visited_.size()) +
               W::vec_bytes<std::uint32_t>(visited_count_.size()) +
               W::vec_bytes<std::uint64_t>(cover_round_.size()) +
               sizeof(std::uint32_t);
    }
    w.reserve(bytes);
    w.u64(round_);
    store_.save_state(w);
    w.u32(options_.track_visits ? 1u : 0u);
    if (options_.track_visits) {
      w.vec(visited_);
      w.vec(visited_count_);
      w.vec(cover_round_);
      w.u32(covered_tokens_);
    }
  }

  /// Inverse of snapshot(); the target must be constructed with the
  /// same bins/tokens/policy/options (std::invalid_argument otherwise,
  /// thrown before any state is overwritten).  The arrays are copied
  /// straight from the payload into place, the token slots in one pass
  /// over the link and progress records.
  void restore(serial::ByteReader& r)
    requires Stream::kScheduleFree
  {
    const std::uint64_t round = r.u64();
    const FlatTokenStore::SavedState store = store_.read_state(r);
    const bool track_visits = r.u32() != 0;
    if (track_visits != options_.track_visits) {
      throw std::invalid_argument("restore: visit-tracking mismatch");
    }
    if (track_visits) {
      const auto visited = r.vec_view<std::uint64_t>();
      const auto visited_count = r.vec_view<std::uint32_t>();
      const auto cover_round = r.vec_view<std::uint64_t>();
      if (visited.count != visited_.size() ||
          visited_count.count != visited_count_.size() ||
          cover_round.count != cover_round_.size()) {
        throw std::invalid_argument("restore: visit-tracking shape mismatch");
      }
      const std::uint32_t covered = r.u32();
      visited.copy_to(visited_);
      visited_count.copy_to(visited_count_);
      cover_round.copy_to(cover_round_);
      covered_tokens_ = covered;
    }
    store_.load_state(store);
    round_ = round;
    rescan_stats();
    check_invariants();
  }

  /// Testing hook: queue/token-position consistency; throws
  /// std::logic_error on violation.  Walks the flat lists in place --
  /// no per-bin heap copy -- kWalkLanes bins at a time, round-robin,
  /// each lane prefetching its next slot, so the pointer chases of
  /// different lists overlap instead of stalling one after another.
  /// Every bin gets the checks of a plain walk in list order, and the
  /// violation reported is the one of the lowest bad bin, as a walk in
  /// bin order would find first.
  void check_invariants() const {
    struct Lane {
      bin_index_t bin;
      std::uint32_t token;   // next token to visit, or kNil
      std::uint32_t expect;  // the header's count
      std::uint32_t walked;
      std::uint32_t last;
    };
    Lane lanes[kWalkLanes]{};
    std::uint32_t active = 0;
    bin_index_t next_bin = 0;
    bin_index_t bad_bin = bins_;  // lowest bin with a violation so far
    const char* bad = nullptr;
    std::uint64_t queued = 0;
    const auto fail = [&](bin_index_t u, const char* what) {
      if (u < bad_bin) {
        bad_bin = u;
        bad = what;
      }
    };
    // A restored payload may link to a token id past the slot array; it
    // is reported as a position mismatch before any slot is read.
    const std::uint32_t tokens = token_count();
    const auto prefetch = [&](std::uint32_t t) {
      if (t < tokens) store_.prefetch_slot(t);
    };
    // Loads the next unchecked non-empty bin below bad_bin into `lane`;
    // false when none is left.  An empty list (no head, count 0) passes
    // every check without a lane.
    const auto start = [&](Lane& lane) {
      while (next_bin < bad_bin) {
        const bin_index_t u = next_bin++;
        const std::uint32_t head = store_.peek_head(u);
        const std::uint32_t expect = store_.count(u);
        if (head == FlatTokenStore::kNil && expect == 0) continue;
        prefetch(head);
        lane = Lane{u, head, expect, 0, FlatTokenStore::kNil};
        return true;
      }
      return false;
    };
    while (active < kWalkLanes && start(lanes[active])) ++active;
    while (active > 0) {
      for (std::uint32_t i = 0; i < active;) {
        Lane& lane = lanes[i];
        if (lane.bin < bad_bin && lane.token != FlatTokenStore::kNil &&
            lane.walked <= lane.expect) {
          const std::uint32_t t = lane.token;
          if (t >= tokens || store_.bin_of(t) != lane.bin) {
            fail(lane.bin, "TokenProcessCore: queue/token position mismatch");
          } else {
            lane.last = t;
            ++lane.walked;
            lane.token = store_.next(t);
            prefetch(lane.token);
            ++i;
            continue;
          }
        } else if (lane.bin < bad_bin) {
          if (lane.walked != lane.expect) {
            fail(lane.bin,
                 "TokenProcessCore: queue length drifted (or list cycle)");
          } else if (lane.expect > 0 && lane.last != store_.tail(lane.bin)) {
            fail(lane.bin, "TokenProcessCore: tail out of sync");
          } else {
            queued += lane.walked;
          }
        }
        // The lane's bin is done (or past bad_bin).  A refilled lane
        // waits a pass for its prefetched head; a retired one takes the
        // last lane's place.
        if (start(lane)) {
          ++i;
        } else {
          lane = lanes[--active];
        }
      }
    }
    if (bad != nullptr) throw std::logic_error(bad);
    if (queued != token_count()) {
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

  /// Per-stripe accumulator: the round's shard scans (reset by each
  /// round's throw) and the tokens covered across a run.
  struct alignas(64) StripeAcc {
    LoadScan scan;
    std::uint32_t cum_newly_covered = 0;
  };

  using Rows = ShardRows<Arrival>;

  /// The pops and the push pass prefetch this many moves ahead: at
  /// mega n the store out-sizes the cache and each pop touches a random
  /// head slot, each push a random header and token slot (and,
  /// appending, a random tail slot).
  static constexpr std::uint32_t kPrefetchAhead = 16;
  /// Tail slots are prefetched this many pushes ahead: the tail is read
  /// from a header prefetched at kPrefetchAhead, which must arrive
  /// first.
  static constexpr std::uint32_t kTailAhead = 8;
  /// A per-core L2 size.  A store that fits is served from L2, where
  /// the head and tail prefetches only add work; past it they overlap
  /// the misses.  Sequential FIFO rounds on a 4-vCPU Xeon (2 MiB L2),
  /// always-prefetching vs never: +11% at n = 2^12 (run_delays' size)
  /// and 2^14, +4% at 2^16 (1.8 MB store), -1% at 2^17 and 2^19, -8%
  /// at 10^6 and -4% at 10^7.
  static constexpr std::size_t kCacheBytes = std::size_t{2} << 20;

  /// Lists check_invariants() walks at once.
  static constexpr std::uint32_t kWalkLanes = 16;

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

  /// The release pass of round r over bins [begin, end), both streams,
  /// in three steps: a branch-free departure scan banks the releasing
  /// bins into slots (a constant fraction of the bins is empty, so a
  /// per-bin branch mispredicts like a coin flip); the pops run over
  /// that list into tokens, each counting its token's walk; the
  /// destinations follow as one block into dests.  slots, tokens and
  /// dests must hold end - begin entries; returns the number of
  /// releases k, index-aligned in the three.  It pops only the lists of
  /// [begin, end), so disjoint stripes release concurrently.
  std::uint32_t release_range(std::uint64_t r, bin_index_t begin,
                              bin_index_t end, bin_index_t* slots,
                              std::uint32_t* tokens, bin_index_t* dests) {
    const std::uint32_t n = bins_;
    const std::uint32_t k = store_.bank_nonempty(begin, end, slots);
    const bool random = options_.policy == QueuePolicy::kRandom;
    if constexpr (Stream::kScheduleFree) {
      if (random) {
        for (std::uint32_t i = 0; i < k; ++i) {
          tokens[i] = release_counter(slots[i], r);
        }
      } else {
        pop_fronts(slots, k, tokens);
      }
      // One gathered draw plane materializes every move's destination
      // (slot = releasing bin), bit-identical to the per-call draws.
      stream_.fill_gather(r, slots, 0, k, n, dests);
    } else {
      Rng& rng = stream_.rng();
      const Graph* graph = options_.graph;
      if (random) {
        // The pop draw and the destination draw (uniform bin, or
        // uniform neighbor of u on a graph) interleave per releasing bin.
        for (std::uint32_t i = 0; i < k; ++i) {
          const bin_index_t u = slots[i];
          tokens[i] = store_.pop_at(
              u, static_cast<std::uint32_t>(rng.below(store_.count(u))));
          dests[i] = graph != nullptr ? graph->sample_neighbor(u, rng)
                                      : rng.index(n);
        }
      } else {
        // FIFO / LIFO pops draw nothing, so the destinations follow as
        // a block: the same stream as per-releaser draws.
        pop_fronts(slots, k, tokens);
        if (graph == nullptr) {
          rng.fill_indices(dests, k, n);
        } else {
          for (std::uint32_t i = 0; i < k; ++i) {
            dests[i] = graph->sample_neighbor(slots[i], rng);
          }
        }
      }
    }
    return k;
  }

  /// One sequential round: the release pass over every bin, the delay
  /// clocks, then the push pass.  Later bins see pre-move queues (the
  /// synchronous-round convention).  Flattened: in a large translation
  /// unit GCC's inline-unit-growth budget otherwise left Rng::below out
  /// of line in the block draw, a call per draw (+20% on the delays
  /// driver's rounds).
  [[gnu::flatten]] void step_sequential() {
    const std::uint64_t r = round_;
    const std::uint32_t n = bins_;
    seq_slots_.resize(n);
    seq_tokens_.resize(n);
    seq_dests_.resize(n);
    const std::uint32_t* tokens = seq_tokens_.data();
    const bin_index_t* dests = seq_dests_.data();
    const std::uint32_t k = release_range(r, 0, n, seq_slots_.data(),
                                          seq_tokens_.data(),
                                          seq_dests_.data());
    if (options_.track_delays) {
      // Every popped token is re-pushed this round, so its arrival
      // clock restarts at r + 1.
      for (std::uint32_t i = 0; i < k; ++i) {
        round_t& arrival = arrival_round_[tokens[i]];
        delays_.add(r - arrival);
        arrival = r + 1;
      }
    }
    covered_tokens_ += push_moves(
        k, [&](std::size_t i) { return Arrival{dests[i], tokens[i]}; },
        r + 1);
    stats_dirty_ = true;  // recomputed lazily on the next stats query
    ++round_;
  }

  /// The FIFO / LIFO pops of the banked releasing bins slots[0, k) into
  /// tokens[0, k); each pop counts its token's walk in the slot line it
  /// already holds.  Out of cache, the head slot of the bin
  /// kPrefetchAhead pops ahead is prefetched: the bank list makes that
  /// bin, and its streamed header the head, known before the pop.  On a
  /// 4-vCPU Xeon at m = n = 10^7 this only paid off on huge pages; on
  /// 4 KiB pages the page walks serialized the misses anyway.
  void pop_fronts(const bin_index_t* slots, std::uint32_t k,
                  std::uint32_t* tokens) {
    const auto pop_all = [&](auto prefetch) {
      for (std::uint32_t i = 0; i < k; ++i) {
        if constexpr (decltype(prefetch)::value) {
          if (i + kPrefetchAhead < k) {
            store_.prefetch_head(slots[i + kPrefetchAhead]);
          }
        }
        tokens[i] = store_.pop_front(slots[i]);
      }
    };
    if (store_out_of_cache()) {
      pop_all(std::true_type{});
    } else {
      pop_all(std::false_type{});
    }
  }

  /// The push pass: enqueues the arrivals move(0), ..., move(k - 1) in
  /// that order, with the policy orientation fixed at compile time;
  /// each push's header and token slot are fetched kPrefetchAhead moves
  /// ahead.  Out of cache, an appending push's tail slot follows
  /// kTailAhead moves ahead, read from the header fetched before it.
  /// Returns how many tokens these visits completed (the caller owns
  /// the covered counter, so the sharded commit can accumulate per
  /// stripe).
  template <typename Move>
  std::uint32_t push_moves(std::size_t k, const Move& move,
                           std::uint64_t cover_at) {
    const auto push_all = [&](auto lifo, auto prefetch_tail) {
      std::uint32_t covered = 0;
      for (std::size_t i = 0; i < k; ++i) {
        if (i + kPrefetchAhead < k) {
          const Arrival ahead = move(i + kPrefetchAhead);
          store_.prefetch_bin(ahead.dest);
          store_.prefetch_slot(ahead.token);
        }
        if constexpr (decltype(prefetch_tail)::value) {
          if (i + kTailAhead < k) {
            store_.prefetch_tail(move(i + kTailAhead).dest);
          }
        }
        const Arrival arrival = move(i);
        if constexpr (decltype(lifo)::value) {
          store_.push_front(arrival.dest, arrival.token);
        } else {
          store_.push_back(arrival.dest, arrival.token);
        }
        if (mark_visited(arrival.token, arrival.dest, cover_at)) ++covered;
      }
      return covered;
    };
    if (options_.policy == QueuePolicy::kLifo) {
      return push_all(std::true_type{}, std::false_type{});
    }
    return store_out_of_cache() ? push_all(std::false_type{}, std::true_type{})
                                : push_all(std::false_type{}, std::false_type{});
  }

  /// Whether the store out-sizes kCacheBytes, the point from which the
  /// pops' head and the pushes' tail prefetches pay (decided once per
  /// pass from the input, like the push orientation).
  [[nodiscard]] bool store_out_of_cache() const noexcept {
    return store_.resident_bytes() > kCacheBytes;
  }

  /// Phase 1 (throw) for one stripe of round r: the release pass over
  /// kDrawChunk-bin blocks of the stripe into stack buffers, each
  /// block's moves pushed to their buffer rows in ascending releasing
  /// bin, so every buffer is filled sorted by releasing bin.  A token
  /// sits in exactly one queue and a stripe pops only its own bins'
  /// lists, so the store writes (progress included) are
  /// stripe-exclusive.
  void throw_stripe(std::uint32_t g, std::uint64_t r, Rows rows)
    requires kShardedExec
  {
    const ShardPlan& plan = exec_.plan();
    acc_[g].scan = LoadScan{};
    const bin_index_t end = plan.stripe_end_bin(g);
    bin_index_t slots[kDrawChunk];
    std::uint32_t tokens[kDrawChunk];
    bin_index_t dests[kDrawChunk];
    for (bin_index_t begin = plan.stripe_begin_bin(g); begin < end;) {
      const bin_index_t block_end =
          begin + std::min<bin_index_t>(kDrawChunk, end - begin);
      obs::add(obs::Counter::kChunkFlushes);
      const std::uint32_t k =
          release_range(r, begin, block_end, slots, tokens, dests);
      for (std::uint32_t i = 0; i < k; ++i) {
        rows.push(dests[i], Arrival{dests[i], tokens[i]});
      }
      begin = block_end;
    }
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
    run_pipeline(
        exec_, rounds, buffers_,
        [&](std::uint32_t g, std::uint64_t i, Rows rows) {
          throw_stripe(g, r0 + i, rows);
        },
        NoChoose{},
        // Phase 2 (commit): a token arrives in exactly one buffer and a
        // stripe pushes only into its own shards' lists.
        [&](std::uint32_t g, std::uint64_t i,
            const std::vector<Arrival>& buf) {
          acc_[g].cum_newly_covered += push_moves(
              buf.size(), [&](std::size_t j) { return buf[j]; }, r0 + i + 1);
        },
        [&](std::uint32_t g, std::uint64_t, bin_index_t begin,
            bin_index_t end) { acc_[g].scan.merge(scan_bins(begin, end)); });

    stats_ = LoadScan{};
    for (const StripeAcc& acc : acc_) {
      stats_.merge(acc.scan);
      covered_tokens_ += acc.cum_newly_covered;
    }
    stats_dirty_ = false;  // the commit scans just paid for them
    round_ += rounds;
  }

  void rebuild_queues(const std::vector<bin_index_t>& placement) {
    store_.rebuild(placement);
    std::fill(arrival_round_.begin(), arrival_round_.end(), round_);
    for (std::uint32_t token = 0; token < token_count(); ++token) {
      if (mark_visited(token, placement[token], round_)) {
        ++covered_tokens_;
      }
    }
    rescan_stats();
  }

  /// Max load and empty bins of bins [begin, end).
  [[nodiscard]] LoadScan scan_bins(bin_index_t begin, bin_index_t end) const {
    LoadScan scan;
    for (bin_index_t u = begin; u < end; ++u) {
      scan.add(static_cast<load_t>(store_.count(u)));
    }
    return scan;
  }

  void rescan_stats() const {
    stats_ = scan_bins(0, bins_);
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
  std::uint64_t round_ = 0;
  // Lazily maintained stats (refresh_stats); mutable so const queries
  // can pay the rescan on demand.
  mutable LoadScan stats_;
  mutable bool stats_dirty_ = false;

  // Visit tracking (empty when !options_.track_visits).
  std::uint32_t words_per_token_ = 0;
  std::vector<std::uint64_t> visited_;
  std::vector<std::uint32_t> visited_count_;
  std::vector<std::uint64_t> cover_round_;
  std::uint32_t covered_tokens_ = 0;

  // Delay tracking (empty when !options_.track_delays): the round each
  // token joined its current queue.
  std::vector<round_t> arrival_round_;
  Histogram delays_;

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
/// single-thread token process of every sequential experiment, and the
/// only one that walks general graphs (TokenOptions::graph) and records
/// delay histograms (TokenOptions::track_delays).  Pinned draw for draw
/// against the naive reference of tests/par/token_reference.hpp.
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

// The sharded round driver (DESIGN.md Sect. 5, "Pipelined multi-round
// execution").
//
// Every sharded kernel core runs its rounds through run_rounds, one
// driver for one round or many.  The driver owns the whole stripe
// skeleton -- the phase order, the team, the phase spans (throw,
// choose, commit, and the per-shard rescan inside commit) -- and a core
// supplies its per-stripe work as callbacks:
//
//   throw(g, i, set)              stripe g's departures: their count
//                                 at least, the bins themselves only
//                                 where a payload needs them
//   [choose(g, i, set)]           optional; reads post-departure loads
//   fill(g, i, set, s)            the round's arrivals into shard s,
//                                 one call per shard stripe g owns
//   scan(g, i, begin, end)        round statistics of that shard
//
// where `set` is the round's buffer parity (i & 1 on a team, 0 inline).
// The count-split cores (load-only, Tetris, leaky: core/kernel/
// count_split.hpp) call run_rounds directly: throw records the stripe's
// departure count k_g in its parity-`set` cell, read off the stripe's
// previous scan without touching a load, and fill departs the bins of
// the shard's leaves, walks the split tree down to them and draws
// them, so the scan that follows finds the shard in cache.  The
// scatter cores (token, mixed, d-choices, threshold) go through
// run_pipeline, which adds the per-ball payload: throw and choose push
// arrivals through rows.push, and
//
//   apply(g, i, buffer)           one (source stripe, shard) buffer of
//                                 arrivals into a shard stripe g owns
//
// and run_pipeline alone knows the scatter layout (row g * shard_count
// + s holds stripe g's throws into shard s), the canonical drain order
// (owned shards ascending, then source stripes ascending: every bin
// receives its arrivals sorted by releasing bin, which keeps token
// enqueues and capacity drops bit-identical for every thread count and
// shard size) and the buffer sizing.
//
// With a team width of at least 2, ONE resident worker team runs the
// whole multi-round call: stripes are statically assigned to team
// workers (stripe g -> worker g % width), and workers advance through
// the phase sequence by publishing per-worker epoch counters
// (acquire/release; no locks, no pool traffic on the hot path).  At
// width 1 -- and when the executor refuses a team -- the same phase
// sequence runs inline on the calling thread.  Either way every phase
// of stripe g runs on one thread, so per-stripe accumulators need no
// synchronization: a core resets its per-round stripe fields in the
// stripe's throw and fills them in its fill/apply and scan.
//
// Per round i, each team worker executes
//
//   throw own stripes        (round i writes the parity-(i&1) buffer
//                             set or k_g cell; reads/writes OWN bins
//                             only)
//   throw_done[w] = i+1      (release)
//   wait throw_done[*] >= i+1  (acquire)
//   [choose own stripes      (reads arbitrary post-departure loads)
//    choose_done[w] = i+1; wait choose_done[*] >= i+1]
//   commit own stripes       (reads every stripe's parity-(i&1)
//                             buffers destined to OWN shards, or every
//                             stripe's parity-(i&1) k_g)
//   commit_done[w] = i+1     (release)
//
// Note there is NO wait before the throw phase -- that is the
// pipelining.  Worker w may begin throw(i+1) while peers still commit
// round i; the counter RNG stream (dest = f(seed, round, slot)) makes
// round-(i+1) draws computable before round i retires anywhere, and the
// only state throw(i+1) touches is w's own bins and stripe scans, last
// written by w's own commit(i) in program order, and its
// parity-((i+1)&1) cells.
//
// Why reuse at parity distance 2 is still safe with no extra wait: w's
// throw(i+2) is preceded (in w's program order) by w's round-(i+1)
// wait on throw_done[*] >= i+2, and a peer's throw_done reaching i+2
// orders that peer's commit(i) -- which drained the parity-(i&1)
// buffers, or read the parity-(i&1) k_g cells, that w is about to
// overwrite -- before the wait's acquire.  The same transitivity covers
// the choose phase's arbitrary load reads.  The chain is pure
// acquire/release on the epoch cells, so ThreadSanitizer sees every
// edge (CI runs the parity suite under TSan at RBB_THREADS=4).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <cstddef>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/kernel/exec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/draw_plane.hpp"
#include "support/types.hpp"

namespace rbb::kernel {

namespace detail {

/// One per-worker epoch counter on its own cache line: the number of
/// rounds of a given phase the worker has completed.  Per-worker (not
/// per-shard) granularity loses nothing: a commit needs ALL stripes'
/// throws, so every wait is inherently global.
struct alignas(64) EpochCell {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

/// Max load and empty-bin count of a set of bins: add() each load (or
/// add_range() a block), then merge() partial scans (max and sum
/// commute, so the merge order never changes the result; the cores
/// still merge in fixed stripe order).
struct LoadScan {
  load_t max = 0;
  std::uint32_t zeros = 0;

  /// Branch-free: whether a bin is empty is a coin flip when a third of
  /// the bins are empty at random.  (load - 1) >> 63 in 64 bits is 1
  /// exactly when load == 0; `zeros += load == 0` would let the compiler
  /// fold the max update into a branch on the zero test again (max is
  /// unchanged by a zero load).
  void add(load_t load) noexcept {
    zeros += static_cast<std::uint32_t>((std::uint64_t{load} - 1) >> 63);
    max = std::max(max, load);
  }
  /// add() over loads[0, count).  The ISA follows the draw planes'
  /// dispatch (active_plane_isa(), so RBB_DRAW_PLANE_SIMD=0 and
  /// force_plane_isa pin this scan too): 8-lane AVX2 with an unsigned
  /// max where available -- SSE2 has no unsigned 32-bit max, so the
  /// portable build emulates it -- else the portable reductions.
  void add_range(const load_t* loads, std::size_t count) noexcept {
    if (active_plane_isa() == PlaneIsa::kAvx2) {
      add_range_avx2(loads, count);
    } else {
      add_range_portable(loads, count);
    }
  }
  /// add_range() as two separate reductions, each of which
  /// auto-vectorizes for the build's baseline ISA.
  void add_range_portable(const load_t* loads, std::size_t count) noexcept {
    std::uint32_t z = 0;
    for (std::size_t u = 0; u < count; ++u) z += loads[u] == 0 ? 1u : 0u;
    load_t m = max;
    for (std::size_t u = 0; u < count; ++u) m = std::max(m, loads[u]);
    zeros += z;
    max = m;
  }
  /// add_range() in AVX2 (pipeline.cpp); only callable where
  /// plane_isa_supported(PlaneIsa::kAvx2).
  void add_range_avx2(const load_t* loads, std::size_t count) noexcept;
  void merge(const LoadScan& other) noexcept {
    max = std::max(max, other.max);
    zeros += other.zeros;
  }
};

/// Passed as run_pipeline's choose callback by rounds without a choose
/// phase.
struct NoChoose {};

/// The per-(stripe, target shard) scatter buffers of a sharded kernel:
/// row g * shard_count + s holds the arrivals stripe g throws into shard
/// s.  Set 0 carries every round run inline or alone; set 1 is the
/// odd-round twin of a multi-round team run -- run_pipeline sizes each
/// set on first use, so a width-1 process never holds a second set.
/// Each commit clears (capacity kept) the rows it drains.
template <typename T>
class ScatterBuffers {
 public:
  /// Row base of set `parity & 1`, sized to `rows` rows on first use.
  [[nodiscard]] std::vector<T>* set(std::uint64_t parity, std::size_t rows) {
    std::vector<std::vector<T>>& set = sets_[parity & 1];
    if (set.size() != rows) set.resize(rows);
    return set.data();
  }

  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    std::size_t bytes = 0;
    for (const auto& rows : sets_) {
      for (const std::vector<T>& row : rows) {
        bytes += row.capacity() * sizeof(T);
      }
    }
    return bytes;
  }

  /// True at every round boundary (check_invariants hooks).
  [[nodiscard]] bool drained() const noexcept {
    for (const auto& rows : sets_) {
      for (const std::vector<T>& row : rows) {
        if (!row.empty()) return false;
      }
    }
    return true;
  }

 private:
  std::vector<std::vector<T>> sets_[2];
};

/// The throw/choose callbacks' view of one stripe's buffer row:
/// push(dest, value) appends `value` to the buffer of dest's shard.
template <typename T>
class ShardRows {
 public:
  ShardRows(std::vector<T>* row, const ShardPlan& plan) noexcept
      : row_(row), plan_(&plan) {}

  void push(bin_index_t dest, const T& value) const {
    row_[plan_->shard_of(dest)].push_back(value);
  }

 private:
  std::vector<T>* row_;
  const ShardPlan* plan_;
};

/// Runs `rounds` rounds of throw -> [choose ->] commit over the stripes
/// of `exec`'s plan -- the stripe skeleton without a payload:
///
///   throw_fn(g, i, set)          phase 1 of stripe g, round i
///   choose_fn(g, i, set)         optional (NoChoose{} = no phase)
///   fill_fn(g, i, set, s)        the arrivals of owned shard s, run
///                                for every owned shard in ascending
///                                order, each followed by
///   scan_fn(g, i, begin, end)    that shard's round statistics
///
/// `set` is the round's buffer parity: i & 1 on a team, 0 inline (a
/// round run inline has nothing in flight beside it).  With
/// min(stripe_count, team_width) >= 2 the rounds run pipelined on a
/// resident team; otherwise -- and when the executor refuses the team
/// (pool busy, nested without a grant) -- they run inline on the
/// calling thread, which is the schedule a refused for_each would run
/// too, so the thread count never changes.  `prepare(team)` runs once
/// before any phase, with team = whether a team will be asked for; a
/// payload sized there is only indexed by the workers.  The first
/// exception thrown by a callback aborts the remaining rounds
/// (cooperatively on a team) and is rethrown here, leaving kernel
/// state partially advanced.
template <typename PrepareFn, typename ThrowFn, typename ChooseFn,
          typename FillFn, typename ScanFn>
void run_rounds(ShardedExecution& exec, std::uint64_t rounds,
                PrepareFn&& prepare, ThrowFn&& throw_fn, ChooseFn&& choose_fn,
                FillFn&& fill_fn, ScanFn&& scan_fn) {
  constexpr bool kHasChoose =
      !std::is_same_v<std::remove_cvref_t<ChooseFn>, NoChoose>;
  const ShardPlan& plan = exec.plan();
  const std::uint32_t stripe_count = plan.stripe_count();

  const auto throw_stripe = [&](std::uint32_t g, std::uint64_t i,
                                std::uint32_t set) {
    const obs::ScopedPhase phase_span(obs::Phase::kThrow);
    throw_fn(g, i, set);
  };
  const auto choose_stripe = [&](std::uint32_t g, std::uint64_t i,
                                 std::uint32_t set) {
    if constexpr (kHasChoose) {
      const obs::ScopedPhase phase_span(obs::Phase::kChoose);
      choose_fn(g, i, set);
    }
  };
  const auto commit_stripe = [&](std::uint32_t g, std::uint64_t i,
                                 std::uint32_t set) {
    const obs::ScopedPhase phase_span(obs::Phase::kCommit);
    for (std::uint32_t s = plan.stripe_begin_shard(g);
         s < plan.stripe_end_shard(g); ++s) {
      fill_fn(g, i, set, s);
      const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
      scan_fn(g, i, plan.shard_begin(s), plan.shard_end(s));
      if (t0 != 0) {
        const std::uint64_t t1 = obs::now_ns();
        obs::add_phase_ns(obs::Phase::kRescan, t1 - t0);
        obs::record_span("rescan", t0, t1);
      }
    }
  };

  const auto run_inline = [&] {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      for (std::uint32_t g = 0; g < stripe_count; ++g) throw_stripe(g, i, 0);
      if constexpr (kHasChoose) {
        for (std::uint32_t g = 0; g < stripe_count; ++g) {
          choose_stripe(g, i, 0);
        }
      }
      for (std::uint32_t g = 0; g < stripe_count; ++g) {
        commit_stripe(g, i, 0);
      }
    }
  };
  const std::uint32_t width =
      std::min(stripe_count, exec.stripes().team_width());
  prepare(width >= 2);
  if (width < 2) {
    run_inline();
    return;
  }

  std::vector<detail::EpochCell> throw_done(width);
  std::vector<detail::EpochCell> choose_done(kHasChoose ? width : 0);
  std::vector<detail::EpochCell> commit_done(width);
  std::atomic<bool> abort{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  // Spin until every worker's cell reaches `target` (acquire pairs with
  // the workers' release stores).  Aborts early -- returning false --
  // when a peer has thrown.  Spin time is the pipeline's entire
  // synchronization cost and is recorded as kEpochWait; it runs inside
  // the team task body, so kPoolTask already contains it (the
  // barrier_wait_fraction denominator relies on that).  Short waits
  // (balanced stripes on real cores) stay on yield; past a bounded spin
  // budget the waiter sleeps in 50 us slices -- on an oversubscribed
  // machine the peer it waits for needs this CPU, and a spinning waiter
  // stealing timeslices from it showed up as a measurable regression on
  // the 1-core container.
  const auto wait_all = [&abort](std::vector<detail::EpochCell>& cells,
                                 std::uint64_t target) -> bool {
    constexpr std::uint32_t kSpinsBeforeSleep = 256;
    const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
    bool ok = true;
    std::uint32_t spins = 0;
    for (detail::EpochCell& cell : cells) {
      while (cell.value.load(std::memory_order_acquire) < target) {
        if (abort.load(std::memory_order_acquire)) {
          ok = false;
          break;
        }
        if (++spins < kSpinsBeforeSleep) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      if (!ok) break;
    }
    if (t0 != 0) {
      const std::uint64_t t1 = obs::now_ns();
      obs::add_phase_ns(obs::Phase::kEpochWait, t1 - t0);
      obs::record_span("epoch_wait", t0, t1);
    }
    return ok;
  };

  const bool ran = exec.stripes().run_team(width, [&](std::uint32_t w) {
    try {
      for (std::uint64_t i = 0; i < rounds; ++i) {
        if (abort.load(std::memory_order_acquire)) return;

        // Overlap telemetry: if any peer is still committing round i-1
        // when this worker starts throwing round i, the whole throw
        // block is work hidden behind a commit that a per-round barrier
        // would have stalled on.  Granularity is one throw phase --
        // an honest upper-bound sample, documented in metrics.hpp.
        std::uint64_t o0 = 0;
        if (i > 0 && obs::enabled()) {
          for (const detail::EpochCell& cell : commit_done) {
            if (cell.value.load(std::memory_order_relaxed) < i) {
              o0 = obs::now_ns();
              break;
            }
          }
        }
        const auto set = static_cast<std::uint32_t>(i & 1);
        for (std::uint32_t g = w; g < stripe_count; g += width) {
          throw_stripe(g, i, set);
        }
        if (o0 != 0) {
          obs::add_phase_ns(obs::Phase::kOverlap, obs::now_ns() - o0);
        }
        throw_done[w].value.store(i + 1, std::memory_order_release);
        if (!wait_all(throw_done, i + 1)) return;

        if constexpr (kHasChoose) {
          // Choose reads post-departure loads of arbitrary bins, so it
          // needs all throws of round i (the wait above) and must fully
          // precede any commit of round i (the wait below).
          for (std::uint32_t g = w; g < stripe_count; g += width) {
            choose_stripe(g, i, set);
          }
          choose_done[w].value.store(i + 1, std::memory_order_release);
          if (!wait_all(choose_done, i + 1)) return;
        }

        for (std::uint32_t g = w; g < stripe_count; g += width) {
          commit_stripe(g, i, set);
        }
        commit_done[w].value.store(i + 1, std::memory_order_release);
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      abort.store(true, std::memory_order_release);
    }
  });
  if (!ran) {
    run_inline();
    return;
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// run_rounds with a per-ball scatter payload (see the header comment
/// for the callbacks; pass NoChoose{} for no choose phase): throws and
/// choices push into the round's buffer set, round i on set i & 1 of a
/// team run, set 0 inline; each commit drains the buffers destined to
/// an owned shard in the canonical order.
template <typename T, typename ThrowFn, typename ChooseFn, typename ApplyFn,
          typename ScanFn>
void run_pipeline(ShardedExecution& exec, std::uint64_t rounds,
                  ScatterBuffers<T>& buffers, ThrowFn&& throw_fn,
                  ChooseFn&& choose_fn, ApplyFn&& apply_fn, ScanFn&& scan_fn) {
  constexpr bool kHasChoose =
      !std::is_same_v<std::remove_cvref_t<ChooseFn>, NoChoose>;
  const ShardPlan& plan = exec.plan();
  const std::uint32_t stripe_count = plan.stripe_count();
  const std::uint32_t shard_count = plan.shard_count();
  const std::size_t row_count =
      static_cast<std::size_t>(stripe_count) * shard_count;

  // The sets the rounds use are sized before the team starts: workers
  // only index them.
  std::vector<T>* sets[2] = {nullptr, nullptr};
  const auto rows_of = [&](std::uint32_t g, std::uint32_t set) {
    return ShardRows<T>(sets[set] + static_cast<std::size_t>(g) * shard_count,
                        plan);
  };
  run_rounds(
      exec, rounds,
      [&](bool team) {
        sets[0] = buffers.set(0, row_count);
        if (team && rounds > 1) sets[1] = buffers.set(1, row_count);
      },
      [&](std::uint32_t g, std::uint64_t i, std::uint32_t set) {
        throw_fn(g, i, rows_of(g, set));
      },
      [&] {
        if constexpr (kHasChoose) {
          return [&](std::uint32_t g, std::uint64_t i, std::uint32_t set) {
            choose_fn(g, i, rows_of(g, set));
          };
        } else {
          return NoChoose{};
        }
      }(),
      // The canonical drain: each owned shard's buffers in ascending
      // source stripe, each buffer in push order.
      [&](std::uint32_t g, std::uint64_t i, std::uint32_t set,
          std::uint32_t s) {
        for (std::uint32_t src = 0; src < stripe_count; ++src) {
          std::vector<T>& buf =
              sets[set][static_cast<std::size_t>(src) * shard_count + s];
          apply_fn(g, i, std::as_const(buf));
          buf.clear();
        }
      },
      scan_fn);
}

}  // namespace rbb::kernel

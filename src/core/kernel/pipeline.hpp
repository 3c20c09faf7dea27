// The sharded round driver (DESIGN.md Sect. 5, "Pipelined multi-round
// execution").
//
// Every sharded kernel core runs its rounds through run_pipeline, one
// driver for one round or many.  The driver owns the whole stripe
// skeleton; a core supplies only its per-ball work as four callbacks:
//
//   throw(g, i, rows)             departures of stripe g's own bins;
//                                 arrivals go out through rows.push
//   [choose(g, i, rows)]          optional; reads post-departure loads
//   apply(g, i, buffer)           one (source stripe, shard) buffer of
//                                 arrivals into a shard stripe g owns
//   scan(g, i, begin, end)        round statistics of one owned shard
//
// and the driver alone knows the scatter layout (row g * shard_count + s
// holds stripe g's throws into shard s), the canonical drain order
// (owned shards ascending, then source stripes ascending: every bin
// receives its arrivals sorted by releasing bin, which keeps token
// enqueues and capacity drops bit-identical for every thread count and
// shard size), the phase spans (throw, choose, commit, and the
// per-shard rescan inside commit) and the buffer sizing.
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
// stripe's throw and fills them in its apply and scan.
//
// Per round i, each team worker executes
//
//   throw own stripes        (round i draws into the parity-(i&1)
//                             buffer set; reads/writes OWN bins only)
//   throw_done[w] = i+1      (release)
//   wait throw_done[*] >= i+1  (acquire)
//   [choose own stripes      (reads arbitrary post-departure loads)
//    choose_done[w] = i+1; wait choose_done[*] >= i+1]
//   commit own stripes       (drains every stripe's parity-(i&1)
//                             buffers destined to OWN shards)
//   commit_done[w] = i+1     (release)
//
// Note there is NO wait before the throw phase -- that is the
// pipelining.  Worker w may begin throw(i+1) while peers still commit
// round i; the counter RNG stream (dest = f(seed, round, slot)) makes
// round-(i+1) draws computable before round i retires anywhere, and the
// only state throw(i+1) touches is w's own bins, last written by w's
// own commit(i) in program order.
//
// Why buffer reuse at parity distance 2 is still safe with no extra
// wait: w's throw(i+2) is preceded (in w's program order) by w's
// round-(i+1) wait on throw_done[*] >= i+2, and a peer's throw_done
// reaching i+2 orders that peer's commit(i) -- which drained the
// parity-(i&1) buffers w is about to refill -- before the wait's
// acquire.  The same transitivity covers the choose phase's arbitrary
// load reads.  The chain is pure acquire/release on the epoch cells,
// so ThreadSanitizer sees every edge (CI runs the parity suite under
// TSan at RBB_THREADS=4).
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

/// Max load and empty-bin count of a set of bins: add() each load, then
/// merge() partial scans (max and sum commute, so the merge order never
/// changes the result; the cores still merge in fixed stripe order).
struct LoadScan {
  load_t max = 0;
  std::uint32_t zeros = 0;

  void add(load_t load) noexcept {
    if (load == 0) {
      ++zeros;
    } else if (load > max) {
      max = load;
    }
  }
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
/// of `exec`'s plan (see the header comment for the callbacks; pass
/// NoChoose{} for no choose phase).  With min(stripe_count, team_width)
/// >= 2 the rounds run pipelined on a resident team, round i on buffer
/// set i & 1.  Otherwise -- and when the executor refuses the team (pool
/// busy, nested without a grant) -- they run inline on the calling
/// thread, every round on set 0; that is the schedule a refused for_each
/// would run too, so the thread count never changes.  The first
/// exception thrown by a callback aborts the remaining rounds
/// (cooperatively on a team) and is rethrown here, leaving kernel state
/// partially advanced.
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

  const auto rows_of = [&](std::uint32_t g, std::vector<T>* bufs) {
    return ShardRows<T>(bufs + static_cast<std::size_t>(g) * shard_count,
                        plan);
  };
  const auto throw_stripe = [&](std::uint32_t g, std::uint64_t i,
                                std::vector<T>* bufs) {
    const obs::ScopedPhase phase_span(obs::Phase::kThrow);
    throw_fn(g, i, rows_of(g, bufs));
  };
  const auto choose_stripe = [&](std::uint32_t g, std::uint64_t i,
                                 std::vector<T>* bufs) {
    if constexpr (kHasChoose) {
      const obs::ScopedPhase phase_span(obs::Phase::kChoose);
      choose_fn(g, i, rows_of(g, bufs));
    }
  };
  // The canonical drain: owned shards ascending, each shard's buffers
  // in ascending source stripe, each buffer in push order.
  const auto commit_stripe = [&](std::uint32_t g, std::uint64_t i,
                                 std::vector<T>* bufs) {
    const obs::ScopedPhase phase_span(obs::Phase::kCommit);
    for (std::uint32_t s = plan.stripe_begin_shard(g);
         s < plan.stripe_end_shard(g); ++s) {
      for (std::uint32_t src = 0; src < stripe_count; ++src) {
        std::vector<T>& buf =
            bufs[static_cast<std::size_t>(src) * shard_count + s];
        apply_fn(g, i, std::as_const(buf));
        buf.clear();
      }
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
    std::vector<T>* bufs = buffers.set(0, row_count);
    for (std::uint64_t i = 0; i < rounds; ++i) {
      for (std::uint32_t g = 0; g < stripe_count; ++g) throw_stripe(g, i, bufs);
      if constexpr (kHasChoose) {
        for (std::uint32_t g = 0; g < stripe_count; ++g) {
          choose_stripe(g, i, bufs);
        }
      }
      for (std::uint32_t g = 0; g < stripe_count; ++g) {
        commit_stripe(g, i, bufs);
      }
    }
  };
  const std::uint32_t width =
      std::min(stripe_count, exec.stripes().team_width());
  if (width < 2) {
    run_inline();
    return;
  }
  // The sets the rounds use are sized before the team starts: workers
  // only index them.
  std::vector<T>* sets[2] = {buffers.set(0, row_count), nullptr};
  if (rounds > 1) sets[1] = buffers.set(1, row_count);

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
        std::vector<T>* bufs = sets[i & 1];
        for (std::uint32_t g = w; g < stripe_count; g += width) {
          throw_stripe(g, i, bufs);
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
            choose_stripe(g, i, bufs);
          }
          choose_done[w].value.store(i + 1, std::memory_order_release);
          if (!wait_all(choose_done, i + 1)) return;
        }

        for (std::uint32_t g = w; g < stripe_count; g += width) {
          commit_stripe(g, i, bufs);
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

}  // namespace rbb::kernel

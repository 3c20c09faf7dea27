// Execution policies of the process core (DESIGN.md Sect. 5).
//
// A round kernel instantiates the core template with one of two
// execution policies:
//
//   * SequentialExecution -- the in-place single-thread walk.  Carries
//     no state; every phase the core issues runs inline, so the
//     instantiation compiles down to exactly the hand-written
//     sequential loop (pinned by the engine parity tests).
//   * ShardedExecution -- the two-phase striped throw/commit scatter:
//     a ShardPlan partitions the bins, a StripeExecutor hosts the worker
//     team that pipeline.hpp's round driver runs the per-stripe phase
//     bodies on (inline at width 1).  Requires a schedule-free RNG
//     stream policy (stream.hpp); the core static_asserts the
//     combination.
#pragma once

#include <cstdint>
#include <memory>

#include "core/kernel/shard.hpp"
#include "support/thread_pool.hpp"

namespace rbb::kernel {

/// Execution knobs shared by the sharded instantiations (ignored by
/// SequentialExecution).
struct ExecOptions {
  /// 0 = run on the process-wide ThreadPool::global() (recommended: the
  /// nesting rule in thread_pool.hpp then degrades an inner sharded
  /// round to sequential under a trial-level fan-out instead of
  /// oversubscribing).  1 = strictly in-thread, no pool.  k > 1 =
  /// exactly k runnable threads via a private pool (k-1 workers + the
  /// submitter; see StripeExecutor) -- benchmarks only, and only
  /// meaningful at the top of the nesting hierarchy.
  unsigned threads = 0;
  /// Bins per shard; 0 = kDefaultShardSize.  Rounded up to a multiple
  /// of 16 bins (one cache line of loads).
  std::uint32_t shard_size = 0;
};

/// Hosts the round driver's worker team per the `threads` knob:
///   0  -- the process-wide ThreadPool::global(),
///   1  -- strictly inline on the calling thread (no pool),
///   k  -- a private pool sized k-1 workers: the submitting thread
///         joins its own team (ThreadPool::run_team), so k-1 workers +
///         the submitter = exactly k runnable threads.  This keeps
///         the `threads` label of perf tables honest and the
///         k = hardware row from oversubscribing by one.
/// Note a private pool only helps at the TOP of the nesting hierarchy:
/// inside another pool's task every team is refused and the rounds run
/// inline (thread_pool.hpp nesting rule), so processes driven under
/// for_each_trial should use threads <= 1 and let the trial sweep own
/// the cores.
class StripeExecutor {
 public:
  explicit StripeExecutor(unsigned threads) {
    if (threads == 0) {
      pool_ = &ThreadPool::global();
    } else if (threads > 1) {
      owned_pool_ = std::make_unique<ThreadPool>(threads - 1);
      pool_ = owned_pool_.get();
    }
  }

  /// Widest concurrent team the executor can host: workers + the
  /// submitting thread, or 1 when execution is inline.
  [[nodiscard]] unsigned team_width() const noexcept {
    return pool_ == nullptr ? 1u : pool_->thread_count() + 1;
  }

  /// Runs fn(w) for w in [0, width) as a resident team (every task on
  /// its own thread for the whole call -- ThreadPool::run_team).
  /// Returns false without running anything when no pool is attached or
  /// the pool cannot guarantee team concurrency; the caller then runs
  /// the rounds inline.
  template <typename Fn>
  bool run_team(std::uint32_t width, Fn&& fn) {
    if (pool_ == nullptr) return false;
    return pool_->run_team(width, [&fn](std::uint64_t w) {
      fn(static_cast<std::uint32_t>(w));
    });
  }

 private:
  ThreadPool* pool_ = nullptr;  // nullptr = inline execution
  std::unique_ptr<ThreadPool> owned_pool_;
};

/// In-place sequential walk; no partition, no pool, no state.
class SequentialExecution {
 public:
  static constexpr bool kSharded = false;
  SequentialExecution(std::uint32_t /*n*/, ExecOptions /*options*/) {}
};

/// Two-phase striped scatter across a thread pool.
class ShardedExecution {
 public:
  static constexpr bool kSharded = true;
  ShardedExecution(std::uint32_t n, ExecOptions options)
      : plan_(n, options.shard_size), stripes_(options.threads) {}

  [[nodiscard]] const ShardPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] StripeExecutor& stripes() noexcept { return stripes_; }

 private:
  ShardPlan plan_;
  StripeExecutor stripes_;
};

}  // namespace rbb::kernel

// Minimal task-parallel substrate for Monte-Carlo sweeps (design choice D5)
// and for the sharded intra-round kernel (src/par/).
//
// Parallelism in this repository is across independent trials and sweep
// points, and -- since the src/par/ backend -- across bin shards inside
// one round: each task owns its RNG substream (derived from (seed,
// task_index) for trials, from counter-based draws for shards), writes
// into its own result slot, and the combined output is bit-identical
// regardless of thread count.  This matches the Core Guidelines
// concurrency advice (share nothing mutable; communicate by transfer of
// ownership) and keeps every scientific result reproducible.
//
// Nesting rule (how trial-level fan-out composes with a sharded round):
// by default a for_each issued from *inside* any pool task runs inline
// on the calling thread, sequentially -- whether it targets the same
// pool or a different one.  One level of the hierarchy gets the
// hardware; inner levels degrade to sequential instead of
// oversubscribing (T trial workers x N shard workers threads).
// Submissions to the *same* pool always inline (parallelizing them
// would deadlock on the pool's own workers).  A caller that has split
// the hardware budget deliberately -- trial fan-out on a small private
// pool, each trial driving a sharded process on its own pool
// (--trial-parallelism) -- opts inner levels back in by holding a
// NestedParallelismGrant: while a grant is active on the thread,
// submissions to a *different* pool run parallel instead of inline.
// Results are identical either way, because both layers are
// deterministic by construction.  The same accounting is why
// ThreadPool::global() reserves one slot for the submitting thread:
// run_batch participates in draining its own batch, so a pool of
// hardware_concurrency workers plus the submitter would leave
// hardware_concurrency + 1 runnable threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rbb {

/// Fixed-size pool of worker threads executing an indexed task function
/// over a range [0, task_count).  Work is distributed by atomic counter
/// (dynamic scheduling), which balances heterogeneous trial costs.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (with the
  /// RBB_THREADS environment variable as an override, useful on CI).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, task_count), potentially in parallel,
  /// and blocks until all tasks have finished.  Exceptions thrown by tasks
  /// are rethrown (the first one captured) after the batch drains.  The
  /// callable is a template parameter: workers dispatch through one
  /// per-batch function pointer, so fn's body stays inlinable (no
  /// per-task std::function indirection).
  template <typename Fn>
  void for_each(std::uint64_t task_count, Fn&& fn) {
    if (task_count == 0) return;
    auto batch = std::make_shared<Batch>();
    batch->task_count = task_count;
    batch->context = std::addressof(fn);
    batch->invoke = [](void* context, std::uint64_t i) {
      (*static_cast<std::remove_reference_t<Fn>*>(context))(i);
    };
    run_batch(std::move(batch));
  }

  /// Type-erased convenience wrapper over for_each.
  void parallel_for(std::uint64_t task_count,
                    const std::function<void(std::uint64_t)>& fn);

  /// Runs fn(i) for every i in [0, count) with every task *resident on
  /// its own thread for the batch's whole lifetime* -- the contract the
  /// pipelined round loop's epoch protocol needs (long-lived team tasks
  /// that synchronize with each other must all be runnable at once).
  /// Requires count <= thread_count() + 1 (the submitter participates);
  /// returns false WITHOUT RUNNING ANYTHING when the team cannot be
  /// guaranteed concurrent: too many tasks, the pool is mid-batch, or
  /// the call comes from inside a pool task without an applicable
  /// NestedParallelismGrant.  Callers run the work inline on false.  Exceptions from team tasks are rethrown like for_each.
  template <typename Fn>
  bool run_team(std::uint64_t count, Fn&& fn) {
    if (count == 0) return true;
    if (count > static_cast<std::uint64_t>(thread_count()) + 1) return false;
    auto batch = std::make_shared<Batch>();
    batch->task_count = count;
    batch->context = std::addressof(fn);
    batch->invoke = [](void* context, std::uint64_t i) {
      (*static_cast<std::remove_reference_t<Fn>*>(context))(i);
    };
    return run_batch_team(std::move(batch));
  }

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Number of threads a default-constructed pool would use.
  [[nodiscard]] static unsigned default_thread_count();

  /// A process-wide shared pool for the experiment drivers.  Sized one
  /// below default_thread_count() (floor 1) because the submitting
  /// thread participates in every batch it runs; an explicit
  /// RBB_THREADS override is honored exactly.
  [[nodiscard]] static ThreadPool& global();

  /// True while the calling thread is executing a pool task (any pool).
  /// for_each consults this to run nested submissions inline -- see the
  /// nesting rule in the header comment.
  [[nodiscard]] static bool inside_task() noexcept;

  /// True when a submission to `target` from the calling thread may run
  /// parallel: not inside any pool task, or inside one while a
  /// NestedParallelismGrant is active and `target` is not the pool
  /// whose task this thread is running (same-pool nesting always
  /// inlines -- it would deadlock otherwise).
  [[nodiscard]] static bool nested_allowed(const ThreadPool* target) noexcept;

  /// One submitted for_each call: an index space plus a context/function-
  /// pointer pair erased once per batch (public only for internal
  /// linkage; not part of the API).
  struct Batch {
    std::uint64_t task_count = 0;
    void* context = nullptr;
    void (*invoke)(void*, std::uint64_t) = nullptr;
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> done{0};
    std::exception_ptr first_error;  // guarded by the pool mutex
  };

 private:
  /// Submits the batch, participates in draining it, waits for
  /// completion, and rethrows the first captured task exception.
  void run_batch(std::shared_ptr<Batch> batch);

  /// run_team's backend: like run_batch, but where for_each would
  /// degrade to inline execution (nested without a grant, pool busy)
  /// this refuses instead -- inline execution cannot satisfy the
  /// all-tasks-concurrent contract.  Returns true iff the team ran.
  bool run_batch_team(std::shared_ptr<Batch> batch);

  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable batch_done_;
  Batch* current_ = nullptr;                 // guarded by mutex_
  std::shared_ptr<Batch> current_owner_;     // guarded by mutex_
  bool shutting_down_ = false;
};

/// Convenience: run fn(i) for i in [0, task_count) on the global pool.
void parallel_for(std::uint64_t task_count,
                  const std::function<void(std::uint64_t)>& fn);

/// RAII opt-in to one extra level of pool nesting on this thread: while
/// alive, for_each/run_team submissions to a pool *other than the one
/// whose task the thread is running* execute parallel instead of inline.
/// Held by the trial fan-out wrapper when --trial-parallelism splits the
/// hardware budget between trials and intra-instance shards; same-pool
/// submissions still inline unconditionally (deadlock rule).  Grants
/// stack (nesting the guard is harmless) and are strictly per-thread.
class NestedParallelismGrant {
 public:
  NestedParallelismGrant() noexcept;
  ~NestedParallelismGrant();
  NestedParallelismGrant(const NestedParallelismGrant&) = delete;
  NestedParallelismGrant& operator=(const NestedParallelismGrant&) = delete;
};

}  // namespace rbb

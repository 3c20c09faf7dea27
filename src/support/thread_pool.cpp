#include "support/thread_pool.hpp"

#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rbb {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

unsigned ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("RBB_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1 && parsed <= 1024) return static_cast<unsigned>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : hw;
}

ThreadPool& ThreadPool::global() {
  // The submitter drains its own batches, so size the worker set one
  // below the target (floor 1) to keep runnable threads == hardware.
  // An explicit RBB_THREADS override is taken literally.
  static ThreadPool pool([] {
    const unsigned target = default_thread_count();
    if (std::getenv("RBB_THREADS") != nullptr) return target;
    return target > 1 ? target - 1 : 1u;
  }());
  return pool;
}

namespace {

/// Depth of pool-task nesting on this thread: nonzero while the thread
/// is inside any pool's task callback.  Guards the inline-degradation
/// rule for nested for_each (see thread_pool.hpp).
thread_local unsigned g_task_depth = 0;

/// The pool whose task this thread is currently draining (innermost),
/// so a NestedParallelismGrant can distinguish same-pool submissions
/// (always inline -- deadlock rule) from cross-pool ones (parallel
/// while granted).
thread_local const ThreadPool* g_current_pool = nullptr;

/// Count of live NestedParallelismGrant guards on this thread.
thread_local unsigned g_grant_depth = 0;

struct TaskDepthGuard {
  explicit TaskDepthGuard(const ThreadPool* pool) noexcept
      : saved_pool_(g_current_pool) {
    ++g_task_depth;
    g_current_pool = pool;
  }
  ~TaskDepthGuard() {
    --g_task_depth;
    g_current_pool = saved_pool_;
  }
  TaskDepthGuard(const TaskDepthGuard&) = delete;
  TaskDepthGuard& operator=(const TaskDepthGuard&) = delete;

 private:
  const ThreadPool* saved_pool_;
};

}  // namespace

bool ThreadPool::inside_task() noexcept { return g_task_depth > 0; }

bool ThreadPool::nested_allowed(const ThreadPool* target) noexcept {
  if (g_task_depth == 0) return true;
  return g_grant_depth > 0 && g_current_pool != target;
}

NestedParallelismGrant::NestedParallelismGrant() noexcept { ++g_grant_depth; }
NestedParallelismGrant::~NestedParallelismGrant() { --g_grant_depth; }

namespace {

/// Claims and runs tasks from a batch until the index space is exhausted.
/// `pool` is the pool the batch runs on (recorded per task for the
/// nesting rule).
void drain_batch(const ThreadPool* pool, ThreadPool::Batch& batch,
                 std::mutex& mutex, std::condition_variable& batch_done) {
  for (;;) {
    const std::uint64_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.task_count) return;
    // Telemetry slot writes must precede the done increment below: its
    // acq_rel pairing with the submitter's acquire wait is what orders
    // them before a scrape.
    const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
    try {
      const TaskDepthGuard depth(pool);
      batch.invoke(batch.context, i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!batch.first_error) batch.first_error = std::current_exception();
    }
    if (t0 != 0) {
      obs::add_phase_ns(obs::Phase::kPoolTask, obs::now_ns() - t0);
      obs::add(obs::Counter::kPoolTasks);
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 >=
        batch.task_count) {
      // Lock/unlock before notifying: the submitter checks the completion
      // predicate under `mutex`, so without this handshake the final
      // increment + notify could land between its predicate check and its
      // entry into wait(), losing the wakeup forever.
      { const std::lock_guard<std::mutex> lock(mutex); }
      batch_done.notify_all();
    }
  }
}

}  // namespace

bool ThreadPool::try_run_batch(std::shared_ptr<Batch> batch) {
  if (!nested_allowed(this)) return false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // A concurrent submission from a non-task thread while another
    // batch is in flight is refused rather than queued.
    if (current_ != nullptr) return false;
    current_ = batch.get();
    current_owner_ = batch;
  }
  work_available_.notify_all();
  obs::add(obs::Counter::kPoolBatches);

  // The submitting thread participates in the work.
  drain_batch(this, *batch, mutex_, batch_done_);

  // Everything past our own drain is barrier wait: the time the
  // submitter stalls on stragglers before the batch retires.
  const std::uint64_t w0 = obs::enabled() ? obs::now_ns() : 0;
  std::unique_lock<std::mutex> lock(mutex_);
  batch_done_.wait(lock, [&batch] {
    return batch->done.load(std::memory_order_acquire) >= batch->task_count;
  });
  current_ = nullptr;
  current_owner_.reset();
  const std::exception_ptr err = batch->first_error;
  lock.unlock();
  if (w0 != 0) {
    const std::uint64_t w1 = obs::now_ns();
    obs::add_phase_ns(obs::Phase::kBarrierWait, w1 - w0);
    obs::record_span("barrier_wait", w0, w1);
  }
  work_available_.notify_all();  // release workers parked on batch retire
  if (err) std::rethrow_exception(err);
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || current_ != nullptr; });
      if (shutting_down_) return;
      batch = current_owner_;  // keep the batch alive while we work on it
    }
    if (batch) drain_batch(this, *batch, mutex_, batch_done_);
    // Wait until this batch is retired so we do not busy-spin re-claiming
    // an exhausted index space.  The wait is captured as a per-worker
    // trace span only (its tail runs concurrently with the submitter's
    // scrape, so it must not touch the plain slot cells).
    const std::uint64_t w0 = (batch && obs::tracing()) ? obs::now_ns() : 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this, raw = batch.get()] {
        return shutting_down_ || current_ != raw;
      });
      if (shutting_down_) return;
    }
    if (w0 != 0) obs::record_span("worker_retire_wait", w0, obs::now_ns());
  }
}

}  // namespace rbb

// Parallel Monte-Carlo trial runner (DESIGN.md Sect. 2).
//
// Every experiment driver is "run T independent trials, reduce": this
// header owns that pattern.  Trial `i` gets the substream Rng(seed, i),
// so results are reproducible from one 64-bit seed and bit-identical for
// any worker-thread count (each trial writes only its own result slot;
// the reduction happens sequentially afterwards -- design choice D5,
// pinned by the determinism test in tests/engine/).
//
// A TrialPlan is the one input a backend-capable driver reads to decide
// how trial t runs: how the trials fan out, and which round kernel each
// trial builds (TrialPlan::with_kernel).
//
// `fn` is a template parameter all the way down to the thread pool's
// batch dispatch, so the per-trial hot loop is inlinable -- no
// std::function indirection.
#pragma once

#include <cstdint>
#include <utility>

#include "core/kernel/exec.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace rbb {

/// Runs fn(trial, rng) for trial = 0..trials-1, with rng = Rng(seed,
/// trial), on the process-wide pool.  Blocks until all trials finish;
/// rethrows the first trial exception.
template <typename Fn>
void for_each_trial(std::uint32_t trials, std::uint64_t seed, Fn&& fn) {
  ThreadPool::global().for_each(trials, [seed, &fn](std::uint64_t trial) {
    const obs::ScopedPhase trial_span(obs::Phase::kTrial);
    Rng rng(seed, trial);
    fn(static_cast<std::uint32_t>(trial), rng);
  });
}

/// Which round kernel a trial runs (complete graph only for kSharded).
/// The two kernels draw from different generator families, so their
/// trajectories (not their statistics) differ; a sharded trajectory is
/// bit-identical for every thread count and shard size.
enum class Backend {
  kSeq,      // core/ sequential kernels, xoshiro draws
  kSharded,  // src/par/ instantiations, counter-RNG draws
};

/// Trial `trial`'s 64-bit key under root `seed`: the counter-RNG seed
/// of its sharded kernel (and of the other per-trial processes seeded
/// by a key rather than a substream).
[[nodiscard]] constexpr std::uint64_t trial_key(std::uint64_t seed,
                                                std::uint32_t trial) noexcept {
  return mix64(seed, trial);
}

/// How a sweep runs its trials: the fan-out and each trial's kernel
/// (RunContext::trial_plan derives one from --backend, --threads and
/// --trial-parallelism).
///
/// trial_workers = 0 keeps the legacy behavior: trials fan out on the
/// shared global pool and anything sharded inside a trial runs inline
/// under the nesting rule.  trial_workers >= 1 runs exactly that many
/// concurrent trials, each holding a NestedParallelismGrant so the
/// sharded round inside may still shard across `process_threads`
/// threads of its own private pool -- trial x round nested parallelism
/// without oversubscribing (trial_workers * process_threads is kept at
/// or below the budget by the planner).  The seq kernel ignores
/// process_threads.
struct TrialPlan {
  std::uint32_t trial_workers = 0;  // 0 = legacy global-pool fan-out
  unsigned process_threads = 1;     // ExecOptions::threads per instance
  Backend backend = Backend::kSeq;  // every trial's round kernel

  [[nodiscard]] bool sharded() const noexcept {
    return backend == Backend::kSharded;
  }

  /// The execution knobs of a sharded trial kernel.
  [[nodiscard]] kernel::ExecOptions exec() const noexcept {
    return kernel::ExecOptions{process_threads, 0};
  }

  /// Builds trial `trial`'s round kernel from the shared leading
  /// constructor arguments and calls fn(process):
  ///   kSeq      Seq(args..., rng)  -- the xoshiro adapter on the
  ///                                   trial's substream;
  ///   kSharded  Sharded(args..., trial_key(seed, trial), exec()).
  template <typename Seq, typename Sharded, typename Fn, typename... Args>
  void with_kernel(std::uint64_t seed, std::uint32_t trial, Rng& rng,
                   Fn&& fn, Args&&... args) const {
    if (sharded()) {
      fn(Sharded(std::forward<Args>(args)..., trial_key(seed, trial),
                 exec()));
    } else {
      fn(Seq(std::forward<Args>(args)..., rng));
    }
  }
};

/// Plan-aware overload: like above, but the trial fan-out width follows
/// `plan` (see TrialPlan).  Trial i still gets Rng(seed, i), and each
/// trial writes only its own slot, so results stay bit-identical to the
/// legacy overload for every plan.
template <typename Fn>
void for_each_trial(std::uint32_t trials, std::uint64_t seed,
                    const TrialPlan& plan, Fn&& fn) {
  if (plan.trial_workers == 0) {
    for_each_trial(trials, seed, std::forward<Fn>(fn));
    return;
  }
  if (plan.trial_workers == 1 || trials <= 1) {
    // Sequential fan-out: the whole budget belongs to the instance, so
    // no pool (and no grant) is needed at the trial level.
    for (std::uint32_t trial = 0; trial < trials; ++trial) {
      const obs::ScopedPhase trial_span(obs::Phase::kTrial);
      Rng rng(seed, trial);
      fn(trial, rng);
    }
    return;
  }
  // A private pool of trial_workers - 1 workers: the submitting thread
  // drains batches too, so exactly trial_workers trials run at once.
  ThreadPool trial_pool(plan.trial_workers - 1);
  trial_pool.for_each(trials, [seed, &fn](std::uint64_t trial) {
    const obs::ScopedPhase trial_span(obs::Phase::kTrial);
    // The deliberate split: this trial owns process_threads of the
    // budget, so the sharded round inside may host a team on its own
    // pool instead of degrading to sequential (thread_pool.hpp).
    const NestedParallelismGrant grant;
    Rng rng(seed, trial);
    fn(static_cast<std::uint32_t>(trial), rng);
  });
}

}  // namespace rbb

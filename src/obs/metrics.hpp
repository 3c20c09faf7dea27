// Telemetry metrics registry (DESIGN.md Sect. 6).
//
// Named monotonic counters and per-phase nanosecond totals, sharded
// per thread: every thread that records telemetry owns a cache-line-
// aligned slot of plain (non-atomic) uint64 cells, and scrape() sums
// the slots after the instrumented region has quiesced.  This matches
// the kernel's no-shared-writes discipline -- the hot path never
// touches an atomic or a lock; the only synchronization is the
// ThreadPool batch-completion handshake that already orders every
// task-side write before the submitting thread's scrape.
//
// Cost contract:
//   RBB_TELEMETRY=0   every entry point below compiles to an empty
//                     inline function (pinned by tests/obs/), so the
//                     instrumented kernels are byte-identical to
//                     uninstrumented ones;
//   RBB_TELEMETRY=1,  one relaxed atomic<bool> load and a predicted
//   disabled          branch per call site -- no TLS access, no clock
//                     reads;
//   enabled           TLS slot bump (counters) or two steady_clock
//                     reads per span (obs/trace.hpp).
//
// Slots are registered on first use per thread and never freed, so
// totals from threads that have exited survive until reset().
#pragma once

#ifndef RBB_TELEMETRY
#define RBB_TELEMETRY 1
#endif

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace rbb::obs {

/// The monotonic counter catalogue.  Names (to_string) are the JSON
/// keys of the result schema's `metrics.counters` block -- append only.
enum class Counter : unsigned {
  kLemireRetries = 0,     // deferred second-word retries in lemire_batch
  kPlaneBatchesPortable,  // <= 64-draw draw-plane batches, portable path
  kPlaneBatchesAvx2,      // <= 64-draw draw-plane batches, AVX2 path
  kPlaneDraws,            // draws (offsets, not blocks) the plane output;
                          // fill_packed16 takes eight from one block
  kChunkFlushes,          // sharded-kernel draw-chunk flushes (kDrawChunk)
  kMixedDrops,            // balls dropped by the mixed-regime kernel
  kFaultsInjected,        // adversarial reassignments injected
  kPoolBatches,           // ThreadPool for_each batches submitted
  kPoolTasks,             // ThreadPool tasks executed
  kTraceEventsDropped,    // spans lost to a full per-thread trace buffer
  kCheckpointWrites,      // rbb.ckpt.v1 files durably written
  kCheckpointBytes,       // bytes of checkpoint payloads durably written
  kCheckpointFailures,    // checkpoint writes abandoned after all retries
  kCheckpointRetries,     // checkpoint write attempts retried after an error
  kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// The span/phase taxonomy.  Phase totals accumulate wall nanoseconds
/// *per recording thread* (a phase running on 4 threads for 1 ms
/// contributes 4 ms), so totals are CPU-time-like; to_string values are
/// both the `metrics.phase_ns` JSON keys and the Chrome-trace event
/// names.
enum class Phase : unsigned {
  kThrow = 0,    // sharded kernel phase 1: stripe throw tasks
  kChoose,       // sharded kernel phase 1.5: d-choices / threshold picks
  kCommit,       // sharded kernel phase 2: owner commit tasks
  kRescan,       // commit-epilogue shard load rescans (stats)
  kPlaneFill,    // DrawPlane fill_range / fill_gather / fill_packed16
  kBarrierWait,  // submitter wait for ThreadPool batch completion
  kPoolTask,     // ThreadPool task bodies (invoke only, excludes waits)
  kRound,        // one engine round (includes the kernel phases)
  kTrial,        // one Monte-Carlo trial (includes its rounds)
  kEpochWait,    // pipelined round loop: spins on a peer epoch counter
  kOverlap,      // pipelined throw work done while a prior commit runs
  kCkptWrite,    // encode + atomic persist of one checkpoint file
  kCount,
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

[[nodiscard]] constexpr const char* to_string(Counter counter) noexcept {
  switch (counter) {
    case Counter::kLemireRetries: return "lemire_retries";
    case Counter::kPlaneBatchesPortable: return "plane_batches_portable";
    case Counter::kPlaneBatchesAvx2: return "plane_batches_avx2";
    case Counter::kPlaneDraws: return "plane_draws";
    case Counter::kChunkFlushes: return "chunk_flushes";
    case Counter::kMixedDrops: return "mixed_drops";
    case Counter::kFaultsInjected: return "faults_injected";
    case Counter::kPoolBatches: return "pool_batches";
    case Counter::kPoolTasks: return "pool_tasks";
    case Counter::kTraceEventsDropped: return "trace_events_dropped";
    case Counter::kCheckpointWrites: return "checkpoint_writes";
    case Counter::kCheckpointBytes: return "checkpoint_bytes";
    case Counter::kCheckpointFailures: return "checkpoint_failures";
    case Counter::kCheckpointRetries: return "checkpoint_retries";
    case Counter::kCount: break;
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::kThrow: return "throw";
    case Phase::kChoose: return "choose";
    case Phase::kCommit: return "commit";
    case Phase::kRescan: return "rescan";
    case Phase::kPlaneFill: return "plane_fill";
    case Phase::kBarrierWait: return "barrier_wait";
    case Phase::kPoolTask: return "pool_task";
    case Phase::kRound: return "round";
    case Phase::kTrial: return "trial";
    case Phase::kEpochWait: return "epoch_wait";
    case Phase::kOverlap: return "overlap";
    case Phase::kCkptWrite: return "ckpt_write";
    case Phase::kCount: break;
  }
  return "?";
}

/// One scrape(): the summed totals across every registered thread slot.
/// Defined in both builds so the runner's serialization stays
/// unconditional; under RBB_TELEMETRY=0 scrape() returns all zeros.
struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kPhaseCount> phase_ns{};

  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t phase(Phase p) const noexcept {
    return phase_ns[static_cast<std::size_t>(p)];
  }

  /// Share of pool-related time spent waiting for other threads:
  /// (barrier_wait + epoch_wait) / (barrier_wait + pool_task), 0 when
  /// the pool was never used.  Near 0 = the thread axis is real work;
  /// near 1 = the submitter mostly waits (or the pool mostly idles).
  /// Epoch-wait spins run inside team task bodies, so pool_task already
  /// contains them and the denominator needs no extra term; with no
  /// pipelining (epoch_wait == 0) this reduces exactly to the old
  /// barrier_wait / (barrier_wait + pool_task).
  [[nodiscard]] double barrier_wait_fraction() const noexcept {
    const double wait = static_cast<double>(phase(Phase::kBarrierWait)) +
                        static_cast<double>(phase(Phase::kEpochWait));
    const double denom = static_cast<double>(phase(Phase::kBarrierWait)) +
                         static_cast<double>(phase(Phase::kPoolTask));
    return denom > 0.0 ? wait / denom : 0.0;
  }

  /// How full the pipeline ran: overlap / (overlap + epoch_wait), where
  /// `overlap` is throw-phase time spent while some peer was still
  /// committing the previous round and `epoch_wait` is time spent
  /// spinning on peer epochs.  1 = every wait was hidden behind useful
  /// work; 0 = no overlap happened (single rounds, inline execution, or
  /// telemetry off).
  [[nodiscard]] double pipeline_fill_fraction() const noexcept {
    const double overlap = static_cast<double>(phase(Phase::kOverlap));
    const double denom =
        overlap + static_cast<double>(phase(Phase::kEpochWait));
    return denom > 0.0 ? overlap / denom : 0.0;
  }
};

#if RBB_TELEMETRY

namespace detail {
/// The master runtime switch, read relaxed on every instrumentation
/// call site.  Exposed only so enabled() inlines to a single load.
extern std::atomic<bool> g_enabled;
void slot_add(unsigned counter, std::uint64_t delta) noexcept;
void slot_add_phase(unsigned phase, std::uint64_t ns) noexcept;
}  // namespace detail

/// True while telemetry is recording (counters and spans).  One relaxed
/// load -- the branch every disabled call site reduces to.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flips recording on/off.  Not a reset: totals persist across off/on.
void set_enabled(bool on) noexcept;

/// counter += delta on the calling thread's slot.
inline void add(Counter counter, std::uint64_t delta = 1) noexcept {
  if (enabled()) detail::slot_add(static_cast<unsigned>(counter), delta);
}

/// phase total += ns on the calling thread's slot.
inline void add_phase_ns(Phase phase, std::uint64_t ns) noexcept {
  if (enabled()) detail::slot_add_phase(static_cast<unsigned>(phase), ns);
}

/// Sums every registered thread slot.  Caller must ensure recording
/// threads have quiesced (for pool tasks the batch handshake already
/// orders their writes before the submitter returns from for_each).
[[nodiscard]] MetricsSnapshot scrape() noexcept;

/// Zeroes every registered slot (same quiescence contract as scrape).
void reset() noexcept;

#else  // !RBB_TELEMETRY -- every entry point is an empty inline no-op.

[[nodiscard]] constexpr bool enabled() noexcept { return false; }
inline void set_enabled(bool) noexcept {}
inline void add(Counter, std::uint64_t = 1) noexcept {}
inline void add_phase_ns(Phase, std::uint64_t) noexcept {}
[[nodiscard]] inline MetricsSnapshot scrape() noexcept { return {}; }
inline void reset() noexcept {}

#endif  // RBB_TELEMETRY

}  // namespace rbb::obs

// Extra -- scaling of the sharded round kernels (src/par/): rounds/sec
// and ns/ball for one mega-n instance, versus the sequential kernels,
// for EVERY variant of the policy core.
//
// This is the experiment behind BENCH_sharded.json, the repository's
// tracked perf baseline: run it with --format=json and compare the
// rounds_per_sec column across commits (tools/bench_diff.py diffs two
// baselines row by row).  Per (n, variant), three backends are timed:
//
//   seq          the production sequential kernel (xoshiro draws),
//   seq-counter  the sequential sibling making counter-RNG draws
//                (isolates the RNG-swap cost from the sharding win),
//   sharded xT   the two-phase kernel at each requested thread count.
//
// Variants: load (the paper's process), token (FIFO, m = n tokens, the
// flat implicit-FIFO store), tetris (3n/4 fresh arrivals/round),
// dchoices (d = 2).  Every variant runs the full n sweep -- the former
// 10^6 token cap fell with the per-bin queues (token state is now
// 8m + 12n bytes of flat storage).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/process.hpp"
#include "baselines/repeated_dchoices.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_token_process.hpp"
#include "par/sharded_variants.hpp"
#include "runner/registry.hpp"
#include "support/meminfo.hpp"
#include "support/thread_pool.hpp"
#include "tetris/tetris.hpp"

namespace rbb::runner {

namespace {

/// Wall seconds for `rounds` rounds of `proc` after one untimed warm-up
/// round (faults in the arrays and sizes the scatter buffers).  When the
/// process has a batched run(), the whole block goes through it so the
/// sharded kernels take the pipelined multi-round path -- the thing this
/// experiment is meant to measure; step()-only processes keep the loop.
template <typename Process>
double time_rounds(Process& proc, std::uint64_t rounds) {
  proc.step();
  const auto t0 = std::chrono::steady_clock::now();
  if constexpr (requires { proc.run(rounds); }) {
    proc.run(rounds);
  } else {
    for (std::uint64_t r = 0; r < rounds; ++r) proc.step();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

void register_sharded_scaling(Registry& registry) {
  Experiment e;
  e.name = "sharded_scaling";
  e.claim = "";
  e.title =
      "sharded round kernels: rounds/sec and ns/ball vs n x variant x "
      "threads";
  e.description =
      "Times one instance of every policy-core variant (load-only, FIFO "
      "token, Tetris, d-choices with d = 2) on three backends: the "
      "sequential xoshiro kernel, the sequential counter-RNG sibling "
      "(isolating the RNG swap), and the sharded two-phase kernel "
      "(src/par/) at several worker counts.  One round of one instance "
      "runs across all cores; the timed block is a single batched run() "
      "so multi-round pipelining (double-buffered throw/commit overlap "
      "on a resident worker team; one worker runs the same phases "
      "inline) is what gets measured, and trajectories are "
      "bit-identical for every thread "
      "count and shard size.  n sweeps by scale up to 10^8 at "
      "--scale=mega for all four variants (token rows are uncapped: the "
      "flat implicit-FIFO store is 8m + 12n bytes); --n times a single "
      "size instead.  --threads fixes a single worker count, otherwise "
      "{1, 4, max} are measured.  Each row also reports the resident "
      "kernel state per ball and the process peak RSS -- informational "
      "columns, not gated by tools/bench_diff.py.  The JSON output of "
      "this experiment is the tracked perf baseline BENCH_sharded.json.  "
      "Single-instance measurement: --trials is ignored.";
  e.family = ProcessFamily::kKernelSuite;
  e.params = {
      {"rounds", ParamSpec::Type::kU64, "0",
       "measured rounds per point (0 = auto, ~6.4e7 bin-visits per "
       "point, clamped to [2, 32])"},
      {"shard-size", ParamSpec::Type::kU64, "0",
       "bins per shard for the sharded kernels (0 = 16384)"},
      {"variant", ParamSpec::Type::kString, "all",
       "kernel variant to time: all, load, token, tetris, dchoices"},
      {"n", ParamSpec::Type::kU64, "0",
       "time a single bin count instead of the --scale sweep (0 = "
       "sweep)"},
  };
  e.run = [](const RunContext& ctx) {
    std::vector<std::uint64_t> ns = by_scale<std::vector<std::uint64_t>>(
        ctx.scale, {100000}, {1000000, 10000000}, {1000000, 10000000},
        {1000000, 10000000, 100000000});
    if (ctx.params.u64("n") != 0) ns = {ctx.params.u64("n")};
    const auto shard_size =
        static_cast<std::uint32_t>(ctx.params.u32("shard-size"));
    const std::string& variant_filter = ctx.params.str("variant");
    const auto variant_on = [&](const char* name) {
      return variant_filter == "all" || variant_filter == name;
    };
    if (!variant_on("load") && !variant_on("token") &&
        !variant_on("tetris") && !variant_on("dchoices")) {
      throw std::invalid_argument(
          "--variant expects all, load, token, tetris or dchoices");
    }

    // Worker counts: an explicit --threads measures exactly that;
    // otherwise 1, 4, and the machine maximum (deduplicated).
    std::vector<unsigned> thread_grid;
    const unsigned hw = ThreadPool::default_thread_count();
    if (ctx.threads() != 0) {
      thread_grid.push_back(ctx.threads());
    } else {
      for (const unsigned t : {1u, 4u, hw}) {
        if (std::find(thread_grid.begin(), thread_grid.end(), t) ==
            thread_grid.end()) {
          thread_grid.push_back(t);
        }
      }
    }

    ResultSet rs;
    Table& table = rs.add_table(
        "sharded_scaling",
        "rounds/sec and ns/ball: sequential vs sharded kernels, per "
        "variant",
        {"n", "variant", "backend", "threads", "rounds", "wall_s",
         "rounds_per_sec", "ns_per_ball", "speedup_vs_seq",
         "state_bytes_per_ball", "peak_rss_mb"},
        {"state_bytes_per_ball", "peak_rss_mb"});

    for (const std::uint64_t n_requested : ns) {
      /// Times the three backends of one variant at one n.  make_seq /
      /// make_counter / make_sharded build the processes; the emit
      /// bookkeeping (rounds/sec, ns/ball, speedup vs this variant's
      /// seq row, resident state, peak RSS) is shared.
      const auto bench_variant = [&](const std::string& variant,
                                     std::uint64_t n64, auto make_seq,
                                     auto make_counter, auto make_sharded) {
        const std::uint64_t rounds =
            ctx.params.u64("rounds") != 0
                ? ctx.params.u64("rounds")
                : std::clamp<std::uint64_t>(64000000 / n64, 2, 32);
        const double balls =
            static_cast<double>(n64) * static_cast<double>(rounds);
        const auto emit = [&](const std::string& backend, unsigned threads,
                              double wall, double seq_wall,
                              double state_bytes) {
          Table& r = table.row()
                         .cell(n64)
                         .cell(variant)
                         .cell(backend)
                         .cell(std::uint64_t{threads})
                         .cell(rounds)
                         .cell(wall, 4)
                         .cell(static_cast<double>(rounds) / wall, 2)
                         .cell(wall / balls * 1e9, 2)
                         .cell(seq_wall / wall, 2)
                         .cell(state_bytes / static_cast<double>(n64), 1);
          const PeakRss rss = peak_rss();
          if (rss.available) {
            r.cell(static_cast<double>(rss.bytes) / (1024.0 * 1024.0), 1);
          } else {
            r.cell(std::string("unavailable"));
          }
        };
        double seq_wall = 0;
        {
          auto proc = make_seq();
          seq_wall = time_rounds(proc, rounds);
          emit("seq", 1, seq_wall, seq_wall,
               static_cast<double>(proc.resident_state_bytes()));
        }
        {
          auto proc = make_counter();
          const double wall = time_rounds(proc, rounds);
          emit("seq-counter", 1, wall, seq_wall,
               static_cast<double>(proc.resident_state_bytes()));
        }
        for (const unsigned threads : thread_grid) {
          auto proc = make_sharded(threads);
          const double wall = time_rounds(proc, rounds);
          emit("sharded", threads, wall, seq_wall,
               static_cast<double>(proc.resident_state_bytes()));
        }
      };

      const auto n = static_cast<std::uint32_t>(n_requested);
      Rng cfg_rng(ctx.seed());
      const auto config = [&] {
        return make_config(InitialConfig::kOnePerBin, n, n, cfg_rng);
      };

      if (variant_on("load")) {
        bench_variant(
            "load", n_requested,
            [&] { return RepeatedBallsProcess(config(), Rng(ctx.seed(), 1)); },
            [&] { return par::SequentialCounterProcess(config(), ctx.seed()); },
            [&](unsigned threads) {
              return par::ShardedRepeatedBallsProcess(
                  config(), ctx.seed(),
                  par::ShardedOptions{threads, shard_size});
            });
      }
      if (variant_on("tetris")) {
        bench_variant(
            "tetris", n_requested,
            [&] { return TetrisProcess(config(), Rng(ctx.seed(), 2)); },
            [&] {
              return par::SequentialCounterTetrisProcess(config(),
                                                         ctx.seed());
            },
            [&](unsigned threads) {
              return par::ShardedTetrisProcess(
                  config(), ctx.seed(), 0,
                  par::ShardedOptions{threads, shard_size});
            });
      }
      if (variant_on("dchoices")) {
        bench_variant(
            "dchoices", n_requested,
            [&] {
              return RepeatedDChoicesProcess(config(), 2, Rng(ctx.seed(), 3));
            },
            [&] {
              return par::SequentialCounterDChoicesProcess(config(), 2,
                                                           ctx.seed());
            },
            [&](unsigned threads) {
              return par::ShardedDChoicesProcess(
                  config(), 2, ctx.seed(),
                  par::ShardedOptions{threads, shard_size});
            });
      }
      if (variant_on("token")) {
        bench_variant(
            "token", n_requested,
            [&] {
              return kernel::SequentialTokenProcess(
                  n, identity_placement(n), Rng(ctx.seed(), 4));
            },
            [&] {
              return par::SequentialCounterTokenProcess(
                  n, identity_placement(n), ctx.seed());
            },
            [&](unsigned threads) {
              return par::ShardedTokenProcess(
                  n, identity_placement(n), ctx.seed(),
                  par::ShardedOptions{threads, shard_size});
            });
      }
    }

    rs.note("hardware threads: " + std::to_string(hw) +
            " (ThreadPool::default_thread_count; RBB_THREADS overrides)");
    rs.note("one-per-bin start: every bin releases each round, the "
            "max-throughput regime; ns_per_ball = wall / (rounds * n); "
            "speedup_vs_seq is against the same variant's seq row");
    rs.note("state_bytes_per_ball (resident kernel state / n, measured "
            "post-run) and peak_rss_mb (VmHWM; the literal string "
            "\"unavailable\" where the platform exposes no watermark; "
            "process-wide, so earlier rows' allocations raise later "
            "rows' watermark) are informational -- declared in the "
            "table's `informational` set, which tools/bench_diff.py "
            "reads instead of hardcoding names");
    rs.note("sharded trajectories are bit-identical across the threads "
            "column by construction (tests/par/); timings, not results, "
            "vary with the worker count");
    return rs;
  };
  registry.add(std::move(e));
}

}  // namespace rbb::runner

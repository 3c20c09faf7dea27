// mega_load: one mega-n instance of the paper's load-only process.
//
// Why: the Los-Sauerwald m/n + O(log n) bands only separate at large n,
// so users drive single huge instances.  The time goes to the sharded
// throw/commit scatter (core/kernel), the counter-RNG draw planes
// (support), the pipeline's epoch sync and memory bandwidth; engine,
// analysis and ckpt are off the path.
//
// One unit: build the process from a one-per-bin start (every bin
// releases every round), run timed pipelined blocks at 4 threads, then
// build a second instance from the same configuration and run the same
// rounds at width 1.  Both snapshots must agree byte for byte.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/config.hpp"
#include "par/sharded_process.hpp"
#include "support/rng.hpp"
#include "support/serial.hpp"

namespace perfbench {
namespace {

using Proc = rbb::par::ShardedRepeatedBallsProcess;

struct Size {
  std::uint32_t n;
  std::uint32_t blocks;        // timed blocks per instance
  std::uint32_t block_rounds;  // rounds per timed block
};

constexpr Size kFull{1u << 25, 2, 2};
constexpr Size kTiny{1u << 16, 2, 2};
constexpr unsigned kThreads = 4;
// Two pipelined rounds size both scatter-buffer sets (first touch).
constexpr std::uint64_t kWarmupRounds = 2;

struct Pass : PassBase {
  std::vector<double> construct_s;
  std::vector<double> snapshot_s;
};

/// Snapshot (a kernel call, added to `layers`) and its CRC (a check).
std::uint32_t snapshot_crc(const Proc& proc, Pass& p, double& layers) {
  std::string bytes;
  p.snapshot_s.push_back(timed("bench.snapshot", [&] {
    rbb::serial::ByteWriter w;
    proc.snapshot(w);
    bytes = w.take();
  }));
  layers += p.snapshot_s.back();
  return rbb::serial::crc32(bytes.data(), bytes.size());
}

/// Config generation, construction and the warm-up rounds; adds their
/// time to `setup`.  Only 4-thread builds are set-up samples.
std::unique_ptr<Proc> build(const Options& o, const Size& s, unsigned threads,
                            Pass& p, double& setup) {
  const Span span("bench.setup");
  const double t0 = now_s();
  rbb::Rng rng(o.seed);
  rbb::LoadConfig config =
      rbb::make_config(rbb::InitialConfig::kOnePerBin, s.n, s.n, rng);
  auto proc = std::make_unique<Proc>(std::move(config),
                                     rbb::mix64(o.seed, 0x6d656761),
                                     rbb::par::ShardedOptions{threads, 0});
  const double t1 = now_s();
  proc->run(kWarmupRounds);
  p.balls += static_cast<double>(kWarmupRounds) * s.n;
  const double t2 = now_s();
  setup += t2 - t0;
  if (threads == kThreads) {
    p.construct_s.push_back(t1 - t0);
    p.setup_s.push_back(t2 - t0);
  }
  return proc;
}

/// Timed blocks; returns their total seconds.
double timed_blocks(Proc& proc, const Size& s, const char* span_name,
                    std::vector<double>& ns, Pass& p) {
  double total = 0;
  for (std::uint32_t b = 0; b < s.blocks; ++b) {
    const double dt = timed(span_name, [&] { proc.run(s.block_rounds); });
    total += dt;
    ns.push_back(dt * 1e9 / (static_cast<double>(s.block_rounds) * s.n));
    p.balls += static_cast<double>(s.block_rounds) * s.n;
  }
  return total;
}

void unit(const Options& o, const Size& s, Pass& p, Report& rep) {
  const double start = now_s();
  double setup = 0;
  double layers = 0;
  std::uint32_t crc4 = 0;
  std::uint64_t round4 = 0;
  {
    std::unique_ptr<Proc> proc = build(o, s, kThreads, p, setup);
    p.state_bytes = static_cast<double>(proc->resident_state_bytes());
    layers += timed_blocks(*proc, s, "bench.run_4t", p.ns4, p);
    crc4 = snapshot_crc(*proc, p, layers);
    round4 = proc->round();
    rep.check(proc->ball_count() == s.n, "mega_load: 4-thread ball count");
  }
  std::unique_ptr<Proc> proc = build(o, s, 1, p, setup);
  layers += timed_blocks(*proc, s, "bench.run_1t", p.ns1, p);
  const std::uint32_t crc1 = snapshot_crc(*proc, p, layers);
  rep.check(proc->round() == round4 && crc1 == crc4,
            "mega_load: width-1 snapshot CRC differs from 4-thread CRC");
  rep.check(proc->ball_count() == s.n, "mega_load: width-1 ball count");
  proc.reset();
  const double wall = now_s() - start - setup;
  p.wall_s.push_back(wall);
  p.unattributed.push_back((wall - layers) / wall);
}

/// kernel.run_ns_per_ball vs kernel.step_ns_per_ball: the same rounds
/// through the pipelined run() and through barriered step() calls.
void run_vs_step(const Options& o, const Size& s, Report& rep) {
  Pass warmup;
  double setup = 0;
  std::unique_ptr<Proc> proc = build(o, s, kThreads, warmup, setup);
  const std::uint32_t rounds = s.blocks * s.block_rounds;
  const double balls = static_cast<double>(rounds) * s.n;
  rep.layer("kernel.run_ns_per_ball",
            timed("bench.run", [&] { proc->run(rounds); }) * 1e9 / balls);
  rep.layer("kernel.step_ns_per_ball", timed("bench.step", [&] {
              for (std::uint32_t r = 0; r < rounds; ++r) proc->step();
            }) * 1e9 / balls);
}

}  // namespace

void run_mega_load(const Options& o, Report& rep) {
  const Size& s = o.tiny ? kTiny : kFull;
  rep.info("n", s.n);
  rep.info("timed_rounds_per_instance",
           static_cast<double>(s.blocks) * s.block_rounds);
  const auto one_unit = [&](Pass& p) { unit(o, s, p, rep); };
  if (!o.trace) {
    report_end_to_end(run_pass<Pass>(o.seconds, one_unit), rep);
    return;
  }
  const TracedRun<Pass> run = run_traced<Pass>(o, one_unit);
  report_common_layers(run.plain, run.traced, run.snap, o.seed, rep);
  report_kernel_phases(run.snap, run.traced.balls, rep);
  rep.layer("kernel.construct_s", median(run.traced.construct_s));
  rep.layer("kernel.state_bytes_per_ball", run.traced.state_bytes / s.n);
  rep.layer("kernel.snapshot_s", median(run.traced.snapshot_s));
  run_vs_step(o, s, rep);
  rep.fill_bypassed_layers();
}

}  // namespace perfbench

// token_ckpt: the flat-store FIFO token core at m = n = 10^7 on the
// sharded kernel, with periodic checkpoints.
//
// Why: it uses core/kernel differently from mega_load -- pointer-chasing
// queue pops over 8m + 12n bytes of flat queue state instead of 4 B/bin
// of loads -- and it puts checkpoint writes (ckpt) beside the rounds.
//
// One unit: build the process, run timed blocks of K rounds at 4
// threads, and after each block snapshot -> ckpt::encode ->
// ckpt::atomic_write_file into the run's work directory.  At the end,
// ckpt::read_checkpoint (read + decode + CRC checks) -> restore into a
// fresh width-1 instance, whose snapshot must match the live one, and
// time a few width-1 rounds on it.  Checkpoints are written inside the
// checkout (the benchmark touches nothing outside it), so ckpt.write_s
// includes the filesystem's write and fsync cost.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/io.hpp"
#include "common.hpp"
#include "core/token_process.hpp"
#include "par/sharded_token_process.hpp"
#include "support/rng.hpp"
#include "support/serial.hpp"

namespace perfbench {
namespace {

using Proc = rbb::par::ShardedTokenProcess;

struct Size {
  std::uint32_t n;             // bins = tokens
  std::uint32_t checkpoints;   // timed blocks, one checkpoint after each
  std::uint32_t block_rounds;  // K
  std::uint32_t width1_rounds;
};

constexpr Size kFull{10'000'000, 2, 4, 4};
constexpr Size kTiny{1u << 14, 2, 4, 2};
constexpr unsigned kThreads = 4;
constexpr std::uint64_t kWarmupRounds = 2;

struct Pass : PassBase {
  std::vector<double> construct_s;
  std::vector<double> snapshot_s;
  std::vector<double> encode_s;
  std::vector<double> write_s;
  std::vector<double> read_s;
  std::vector<double> restore_s;
  std::vector<double> mb_per_s;
  double ckpt_bytes = 0;
};

std::unique_ptr<Proc> make(const Size& s, std::uint64_t pseed,
                           unsigned threads) {
  return std::make_unique<Proc>(s.n, rbb::identity_placement(s.n), pseed,
                                rbb::par::ShardedOptions{threads, 0});
}

rbb::ckpt::Header header(const Size& s, std::uint64_t pseed,
                         std::uint64_t round) {
  rbb::ckpt::Header h;
  h.family = rbb::ckpt::Family::kToken;
  h.backend = rbb::ckpt::kBackendSharded;
  h.bins = s.n;
  h.entities = s.n;
  h.seed = pseed;
  h.round = round;
  h.options_digest = rbb::ckpt::digest("perfbench token_ckpt policy=fifo");
  return h;
}

/// Flips one byte in the middle (the payload) of the file at `path`.
void corrupt(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return;
  std::fseek(f, 0, SEEK_END);
  const long mid = std::ftell(f) / 2;
  std::fseek(f, mid, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, mid, SEEK_SET);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

void unit(const Options& o, const Size& s, Pass& p, Report& rep) {
  const std::uint64_t pseed = rbb::mix64(o.seed, 0x746f6b65);
  const std::string dir = o.work_dir + "/token_ckpt";
  std::filesystem::create_directories(dir);
  const double start = now_s();

  std::unique_ptr<Proc> proc;
  double setup = 0;
  {
    const Span span("bench.setup");
    proc = make(s, pseed, kThreads);
    p.construct_s.push_back(now_s() - start);
    proc->run(kWarmupRounds);
    p.balls += static_cast<double>(kWarmupRounds) * s.n;
    setup = now_s() - start;
    p.setup_s.push_back(setup);
  }
  p.state_bytes = static_cast<double>(proc->resident_state_bytes());

  double layers = 0;
  std::string path;
  std::uint32_t live_crc = 0;
  for (std::uint32_t c = 0; c < s.checkpoints; ++c) {
    const double run_s =
        timed("bench.run_4t", [&] { proc->run(s.block_rounds); });
    p.ns4.push_back(run_s * 1e9 / (static_cast<double>(s.block_rounds) * s.n));
    p.balls += static_cast<double>(s.block_rounds) * s.n;

    rbb::ckpt::Checkpoint ckpt;
    ckpt.header = header(s, pseed, proc->round());
    ckpt.meta = "experiment=perfbench_token_ckpt\n";
    p.snapshot_s.push_back(timed("bench.snapshot", [&] {
      rbb::serial::ByteWriter w;
      proc->snapshot(w);
      ckpt.payload = w.take();
    }));
    live_crc = rbb::serial::crc32(ckpt.payload.data(), ckpt.payload.size());
    std::string bytes;
    p.encode_s.push_back(
        timed("bench.ckpt.encode", [&] { bytes = rbb::ckpt::encode(ckpt); }));
    ckpt = {};
    if (!path.empty()) std::filesystem::remove(path);
    path = dir + "/" + rbb::ckpt::checkpoint_filename(proc->round());
    std::string error;
    bool written = false;
    p.write_s.push_back(timed("bench.ckpt.write", [&] {
      written = rbb::ckpt::atomic_write_file(path, bytes, &error);
    }));
    rep.check(written, "token_ckpt: checkpoint write failed: " + error);
    p.mb_per_s.push_back(static_cast<double>(bytes.size()) / 1e6 /
                         (p.encode_s.back() + p.write_s.back()));
    p.ckpt_bytes = static_cast<double>(bytes.size());
    layers += run_s + p.snapshot_s.back() + p.encode_s.back() +
              p.write_s.back();
  }
  const std::uint64_t live_round = proc->round();
  rep.check(proc->token_count() == s.n, "token_ckpt: live token count");
  proc.reset();
  if (o.corrupt_ckpt) corrupt(path);

  std::unique_ptr<Proc> restored;
  layers += timed("bench.construct_1t",
                  [&] { restored = make(s, pseed, 1); });
  bool restored_ok = false;
  try {
    rbb::ckpt::Checkpoint back;
    p.read_s.push_back(timed("bench.ckpt.read", [&] {
      back = rbb::ckpt::read_checkpoint(path);
    }));
    layers += p.read_s.back();
    rbb::ckpt::verify_matches(back.header, rbb::ckpt::Family::kToken, s.n, s.n,
                              pseed, header(s, pseed, 0).options_digest);
    rbb::serial::ByteReader reader(back.payload);
    p.restore_s.push_back(
        timed("bench.restore", [&] { restored->restore(reader); }));
    layers += p.restore_s.back();
    restored_ok = reader.done();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: token_ckpt read-back: %s\n", e.what());
  }
  std::filesystem::remove(path);
  rep.check(restored_ok, "token_ckpt: checkpoint read-back or restore failed");
  if (restored_ok) {
    std::string bytes;
    p.snapshot_s.push_back(timed("bench.snapshot", [&] {
      rbb::serial::ByteWriter w;
      restored->snapshot(w);
      bytes = w.take();
    }));
    layers += p.snapshot_s.back();
    rep.check(restored->round() == live_round &&
                  rbb::serial::crc32(bytes.data(), bytes.size()) == live_crc,
              "token_ckpt: restored snapshot CRC differs from the live one");
    rep.check(restored->token_count() == s.n,
              "token_ckpt: restored token count");
    // The restored instance's first round sizes its scatter buffers
    // (first touch); only the rounds after it are ns_per_ball_1t samples.
    for (std::uint32_t r = 0; r <= s.width1_rounds; ++r) {
      const double run_s = timed("bench.run_1t", [&] { restored->run(1); });
      if (r > 0) p.ns1.push_back(run_s * 1e9 / s.n);
      layers += run_s;
      p.balls += s.n;
    }
  }
  restored.reset();
  const double wall = now_s() - start - setup;
  p.wall_s.push_back(wall);
  p.unattributed.push_back((wall - layers) / wall);
}

/// kernel.run_ns_per_ball vs kernel.step_ns_per_ball on one instance.
void run_vs_step(const Options& o, const Size& s, Report& rep) {
  std::unique_ptr<Proc> proc =
      make(s, rbb::mix64(o.seed, 0x746f6b65), kThreads);
  proc->run(kWarmupRounds);
  const double balls = static_cast<double>(s.block_rounds) * s.n;
  rep.layer("kernel.run_ns_per_ball",
            timed("bench.run", [&] { proc->run(s.block_rounds); }) * 1e9 /
                balls);
  rep.layer("kernel.step_ns_per_ball", timed("bench.step", [&] {
              for (std::uint32_t r = 0; r < s.block_rounds; ++r) proc->step();
            }) * 1e9 / balls);
}

}  // namespace

void run_token_ckpt(const Options& o, Report& rep) {
  const Size& s = o.tiny ? kTiny : kFull;
  rep.info("n", s.n);
  rep.info("m", s.n);
  const auto one_unit = [&](Pass& p) { unit(o, s, p, rep); };
  if (!o.trace) {
    const Pass p = run_pass<Pass>(o.seconds, one_unit);
    rep.info("checkpoint_bytes", p.ckpt_bytes);
    report_end_to_end(p, rep);
    return;
  }
  const TracedRun<Pass> run = run_traced<Pass>(o, one_unit);
  const Pass& b = run.traced;
  report_common_layers(run.plain, b, run.snap, o.seed, rep);
  report_kernel_phases(run.snap, b.balls, rep);
  rep.layer("kernel.construct_s", median(b.construct_s));
  rep.layer("kernel.state_bytes_per_ball", b.state_bytes / s.n);
  rep.layer("kernel.snapshot_s", median(b.snapshot_s));
  rep.layer("kernel.restore_s", median(b.restore_s));
  rep.layer("ckpt.encode_s", median(b.encode_s));
  rep.layer("ckpt.write_s", median(b.write_s));
  rep.layer("ckpt.read_s", median(b.read_s));
  rep.layer("ckpt.mb_per_s", median(b.mb_per_s));
  rep.layer("ckpt.bytes_per_ball", b.ckpt_bytes / s.n);
  run_vs_step(o, s, rep);
  rep.fill_bypassed_layers();
}

}  // namespace perfbench

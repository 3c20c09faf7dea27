// The checkpoint-capable single-instance experiment (DESIGN.md
// Sect. 7): one counter-stream process of any kernel family, driven to
// a round target with periodic sampled rows, periodic rbb.ckpt.v1
// snapshots (--checkpoint-dir/--checkpoint-every), SIGINT-to-checkpoint
// shutdown, and `rbb resume` continuation via --resume-from.
//
// The trajectory is bit-identical across backends, worker counts and
// shard sizes (the counter stream is schedule-free), so the options
// digest deliberately covers only the trajectory-defining parameters
// (family, n, seed, family knobs) -- a checkpoint written by a sharded
// run restores into a sequential one and vice versa.  Each sampled row
// carries a CRC32 of the full kernel snapshot, so two runs agree iff
// every sampled state is byte-identical, not merely summary-identical.
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/io.hpp"
#include "core/config.hpp"
#include "core/mixed_config.hpp"
#include "core/token_process.hpp"
#include "par/sharded_mixed.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_token_process.hpp"
#include "par/sharded_variants.hpp"
#include "runner/interrupt.hpp"
#include "runner/registry.hpp"
#include "support/rng.hpp"
#include "support/serial.hpp"

namespace rbb::runner {
namespace {

/// %.17g round-trips a double exactly through the meta text.
std::string fmt_f64(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The trajectory-defining parameters (everything the digest and the
/// resume meta must cover; execution options stay out by design).
struct TrajectorySpec {
  std::string family;
  std::uint32_t n = 0;
  std::uint64_t rounds = 0;
  std::uint64_t sample_every = 0;
  std::uint64_t seed = 0;
  // family knobs (each used by one family, carried for all)
  std::uint32_t d = 2;           // dchoices
  double lambda = 0.5;           // leaky
  std::string policy = "fifo";   // token
  std::uint64_t arrivals = 0;    // tetris (0 = paper's floor(3n/4))
  double ratio = 2.0;            // mixed
  std::string weights = "unit";  // mixed
  std::string bin_profile = "uniform";  // mixed
};

ckpt::Family family_tag(const std::string& family) {
  if (family == "load") return ckpt::Family::kLoad;
  if (family == "token") return ckpt::Family::kToken;
  if (family == "tetris") return ckpt::Family::kTetris;
  if (family == "dchoices") return ckpt::Family::kDChoices;
  if (family == "leaky") return ckpt::Family::kLeaky;
  if (family == "mixed") return ckpt::Family::kMixed;
  throw std::invalid_argument(
      "trajectory: unknown --family '" + family +
      "' (expected load, token, tetris, dchoices, leaky or mixed)");
}

/// Canonical option string behind the header digest: exactly the
/// parameters that determine the trajectory (per family), nothing
/// about execution.  Resuming under a different value of any of these
/// is a kDigestMismatch.
std::string canonical_options(const TrajectorySpec& s) {
  std::string c = "experiment=trajectory family=" + s.family +
                  " n=" + std::to_string(s.n) +
                  " seed=" + std::to_string(s.seed);
  if (s.family == "token") c += " policy=" + s.policy;
  if (s.family == "tetris") c += " arrivals=" + std::to_string(s.arrivals);
  if (s.family == "dchoices") c += " d=" + std::to_string(s.d);
  if (s.family == "leaky") c += " lambda=" + fmt_f64(s.lambda);
  if (s.family == "mixed") {
    c += " ratio=" + fmt_f64(s.ratio) + " weights=" + s.weights +
         " bin-profile=" + s.bin_profile;
  }
  // Load, Tetris and leaky draw count-split arrivals with packed
  // in-leaf offsets (core/kernel/count_split.hpp).  A checkpoint
  // written under an earlier arrival law (per-ball draws: no token;
  // one Lemire draw per offset: `count-split`) carries another digest,
  // so resume rejects it instead of continuing the trajectory under
  // different draws.
  if (s.family == "load" || s.family == "tetris" || s.family == "leaky") {
    c += " arrival-law=count-split-packed";
  }
  return c;
}

/// The meta block `rbb resume` replays: every trajectory parameter as
/// a `name=value` line (resume turns each into --name=value and lets
/// explicit CLI overrides win; a trajectory-changing override is then
/// caught by the digest check).
std::string meta_block(const TrajectorySpec& s) {
  std::string m = "experiment=trajectory\n";
  m += "family=" + s.family + "\n";
  m += "n=" + std::to_string(s.n) + "\n";
  m += "rounds=" + std::to_string(s.rounds) + "\n";
  m += "sample-every=" + std::to_string(s.sample_every) + "\n";
  m += "seed=" + std::to_string(s.seed) + "\n";
  m += "d=" + std::to_string(s.d) + "\n";
  m += "lambda=" + fmt_f64(s.lambda) + "\n";
  m += "policy=" + s.policy + "\n";
  m += "arrivals=" + std::to_string(s.arrivals) + "\n";
  m += "ratio=" + fmt_f64(s.ratio) + "\n";
  m += "weights=" + s.weights + "\n";
  m += "bin-profile=" + s.bin_profile + "\n";
  return m;
}

template <typename Proc>
std::string snapshot_bytes(const Proc& proc) {
  serial::ByteWriter w;
  proc.snapshot(w);
  return w.take();
}

template <typename Proc>
std::uint64_t entity_count(const Proc& proc) {
  if constexpr (requires { proc.total_balls(); }) {
    return proc.total_balls();
  } else {
    return proc.token_count();
  }
}

/// The knobs that belong to one family each.
struct FamilyKnob {
  const char* name;
  const char* family;
};
constexpr FamilyKnob kFamilyKnobs[] = {
    {"d", "dchoices"},  {"lambda", "leaky"}, {"policy", "token"},
    {"arrivals", "tetris"}, {"ratio", "mixed"}, {"weights", "mixed"},
    {"bin-profile", "mixed"}};

/// Rejects a knob of another family that is set off its default: the
/// run would ignore it, and the checkpoint digest leaves it out, so a
/// resume would accept it too.  Values compare typed, so resume's
/// replayed meta (`ratio=2` for the default "2") passes.
void reject_foreign_knobs(const ParamValues& params,
                          const std::string& family) {
  const ParamValues defaults(params.specs());
  for (const ParamSpec& spec : params.specs()) {
    const auto knob = std::find_if(
        std::begin(kFamilyKnobs), std::end(kFamilyKnobs),
        [&](const FamilyKnob& k) { return spec.name == k.name; });
    if (knob == std::end(kFamilyKnobs) || family == knob->family) continue;
    const std::string& name = spec.name;
    bool moved = false;
    if (spec.type == ParamSpec::Type::kU64) {
      moved = params.u64(name) != defaults.u64(name);
    } else if (spec.type == ParamSpec::Type::kF64) {
      moved = params.f64(name) != defaults.f64(name);
    } else {
      moved = params.str(name) != defaults.str(name);
    }
    if (moved) {
      throw std::invalid_argument("trajectory: --" + name +
                                  " applies to --family=" + knob->family +
                                  " only, not --family=" + family);
    }
  }
}

/// Rounds between checkpoint/sample/interrupt polls: long enough to
/// keep the sharded pipeline fed, short enough that ^C lands within
/// milliseconds at any n.
constexpr std::uint64_t kMaxChunk = 1024;

}  // namespace

void register_trajectory(Registry& registry) {
  registry.add({
    .name = "trajectory",
    .title = "single checkpointable run: sampled trajectory of one process",
    .description =
        "Drives ONE process of the chosen --family (load, token, tetris, "
        "dchoices, leaky or mixed) on the counter stream for --rounds "
        "rounds and reports sampled rows (round, max load, empty bins, "
        "entity count, snapshot CRC).  This is the checkpoint-capable "
        "experiment: --checkpoint-dir/--checkpoint-every write rbb.ckpt.v1 "
        "snapshots every K rounds (keep-last-K retention), SIGINT finishes "
        "the current chunk, writes a final checkpoint and exits with "
        "status 130, and `rbb resume <ckpt>` continues the run to "
        "completion -- bit-identically to an uninterrupted run, on either "
        "backend at any worker count (the snapshot CRC column proves it).  "
        "Each family knob (--d, --lambda, --policy, --arrivals, --ratio, "
        "--weights, --bin-profile) is rejected off its default under any "
        "other family.",
    .kind = ExperimentKind::kCheckpointed,
    .params = {
        {"family", ParamSpec::Type::kString, "load",
         "kernel family: load, token, tetris, dchoices, leaky or mixed"},
        {"n", ParamSpec::Type::kU64, "4096", "bins"},
        {"rounds", ParamSpec::Type::kU64, "8192", "round target"},
        {"sample-every", ParamSpec::Type::kU64, "0",
         "emit a trajectory row every K rounds (0 = final row only)"},
        {"shard-size", ParamSpec::Type::kU64, "0",
         "sharded-backend bins per shard (0 = default; never affects the "
         "trajectory)"},
        {"d", ParamSpec::Type::kU64, "2", "dchoices: probes per ball"},
        {"lambda", ParamSpec::Type::kF64, "0.5",
         "leaky: per-round ball survival probability"},
        {"policy", ParamSpec::Type::kString, "fifo",
         "token: queue policy (fifo, lifo or random)"},
        {"arrivals", ParamSpec::Type::kU64, "0",
         "tetris: arrivals per round (0 = the paper's floor(3n/4))"},
        {"ratio", ParamSpec::Type::kF64, "2",
         "mixed: ball ratio c (m = round(c * n))"},
        {"weights", ParamSpec::Type::kString, "unit",
         "mixed: weight profile (unit, bimodal or zipf)"},
        {"bin-profile", ParamSpec::Type::kString, "uniform",
         "mixed: bin profile (uniform, two-speed, stalled-tenth or capped)"},
    },
    .run = [](const RunContext& ctx) {
      TrajectorySpec s;
      s.family = ctx.params.str("family");
      s.n = ctx.params.u32("n");
      s.rounds = ctx.params.u64("rounds");
      s.sample_every = ctx.params.u64("sample-every");
      s.seed = ctx.seed();
      s.d = ctx.params.u32("d");
      s.lambda = ctx.params.f64("lambda");
      s.policy = ctx.params.str("policy");
      s.arrivals = ctx.params.u64("arrivals");
      s.ratio = ctx.params.f64("ratio");
      s.weights = ctx.params.str("weights");
      s.bin_profile = ctx.params.str("bin-profile");
      if (s.n == 0) throw std::invalid_argument("trajectory: --n must be > 0");
      const ckpt::Family tag = family_tag(s.family);
      reject_foreign_knobs(ctx.params, s.family);
      const std::uint32_t digest = ckpt::digest(canonical_options(s));

      ResultSet rs;
      Table& table = rs.add_table(
          "trajectory",
          "sampled trajectory of one " + s.family + " process, n = " +
              std::to_string(s.n),
          {"round", "max load", "empty bins", "entities", "state crc"},
          {"entities", "state crc"});

      ckpt::CheckpointPlan plan(ctx.checkpoint_dir(), ctx.checkpoint_every(),
                                ctx.checkpoint_keep());

      // One driver for all six families: chunked run with sample /
      // checkpoint / interrupt polls at chunk boundaries (round
      // boundaries are exactly where the kernels' scatter state is
      // provably drained, so snapshots stay closed).
      const auto drive = [&](auto& proc, std::uint64_t entities) {
        const auto make_ckpt = [&] {
          ckpt::Checkpoint c;
          c.header.family = tag;
          c.header.backend =
              ctx.sharded() ? ckpt::kBackendSharded : ckpt::kBackendSeq;
          c.header.bins = s.n;
          c.header.entities = entities;
          c.header.seed = s.seed;
          c.header.round = proc.round();
          c.header.options_digest = digest;
          c.meta = meta_block(s);
          c.payload = snapshot_bytes(proc);
          return c;
        };
        const auto emit_row = [&] {
          const std::string bytes = snapshot_bytes(proc);
          table.row()
              .cell(proc.round())
              .cell(static_cast<std::uint64_t>(proc.max_load()))
              .cell(static_cast<std::uint64_t>(proc.empty_bins()))
              .cell(entity_count(proc))
              .cell(static_cast<std::uint64_t>(
                  serial::crc32(bytes.data(), bytes.size())));
        };

        if (!ctx.resume_from().empty()) {
          const ckpt::Checkpoint c = ckpt::read_checkpoint(ctx.resume_from());
          ckpt::verify_matches(c.header, tag, s.n, entities, s.seed, digest);
          serial::ByteReader r(c.payload);
          proc.restore(r);
          if (!r.done()) {
            throw ckpt::Error(ckpt::ErrorKind::kPayloadCorrupt,
                              "trailing bytes after " + s.family + " payload");
          }
          rs.note("resumed from " + ctx.resume_from() + " at round " +
                  std::to_string(proc.round()));
        }

        std::uint64_t last_ckpt_round = proc.round();
        while (proc.round() < s.rounds && !interrupt::interrupted()) {
          std::uint64_t stop = std::min(s.rounds, proc.round() + kMaxChunk);
          const auto next_boundary = [&](std::uint64_t every) {
            if (every != 0) {
              stop = std::min(stop, (proc.round() / every + 1) * every);
            }
          };
          next_boundary(s.sample_every);
          if (plan.enabled()) next_boundary(plan.every());
          proc.run(stop - proc.round());
          if (s.sample_every != 0 && proc.round() % s.sample_every == 0 &&
              proc.round() < s.rounds) {
            emit_row();
          }
          if (plan.due(proc.round())) {
            if (plan.write(make_ckpt())) last_ckpt_round = proc.round();
          }
        }
        emit_row();  // the final (or interruption) row

        // The exit checkpoint: SIGINT always leaves a resumable snapshot
        // behind; a completed run leaves its terminal state too (useful
        // as a verified artifact) unless the periodic writer just did.
        if (plan.enabled() && proc.round() != last_ckpt_round) {
          const auto path = plan.write(make_ckpt());
          if (interrupt::interrupted()) {
            rs.note("interrupted at round " + std::to_string(proc.round()) +
                    (path ? "; checkpoint written to " + *path
                          : "; final checkpoint write FAILED"));
          }
        } else if (interrupt::interrupted()) {
          rs.note("interrupted at round " + std::to_string(proc.round()));
        }
      };

      Rng cfg_rng(s.seed);
      const par::ShardedOptions opts{
          .threads = ctx.threads(),
          .shard_size = ctx.params.u32("shard-size")};
      if (s.family == "load") {
        LoadConfig config = make_config(InitialConfig::kOnePerBin, s.n, s.n,
                                        cfg_rng);
        if (ctx.sharded()) {
          par::ShardedRepeatedBallsProcess p(std::move(config), s.seed, opts);
          drive(p, s.n);
        } else {
          par::SequentialCounterProcess p(std::move(config), s.seed);
          drive(p, s.n);
        }
      } else if (s.family == "token") {
        kernel::TokenOptions topt;
        topt.policy = queue_policy_from_string(s.policy);
        if (ctx.sharded()) {
          par::ShardedTokenProcess p(s.n, identity_placement(s.n), s.seed, opts,
                                     topt);
          drive(p, s.n);
        } else {
          par::SequentialCounterTokenProcess p(s.n, identity_placement(s.n),
                                               s.seed, topt);
          drive(p, s.n);
        }
      } else if (s.family == "tetris") {
        LoadConfig config = make_config(InitialConfig::kOnePerBin, s.n, s.n,
                                        cfg_rng);
        if (ctx.sharded()) {
          par::ShardedTetrisProcess p(std::move(config), s.seed, s.arrivals,
                                      opts);
          drive(p, s.n);
        } else {
          par::SequentialCounterTetrisProcess p(std::move(config), s.seed,
                                                s.arrivals);
          drive(p, s.n);
        }
      } else if (s.family == "dchoices") {
        LoadConfig config = make_config(InitialConfig::kOnePerBin, s.n, s.n,
                                        cfg_rng);
        if (ctx.sharded()) {
          par::ShardedDChoicesProcess p(std::move(config), s.d, s.seed, opts);
          drive(p, s.n);
        } else {
          par::SequentialCounterDChoicesProcess p(std::move(config), s.d,
                                                  s.seed);
          drive(p, s.n);
        }
      } else if (s.family == "leaky") {
        LoadConfig config = make_config(InitialConfig::kOnePerBin, s.n, s.n,
                                        cfg_rng);
        if (ctx.sharded()) {
          par::ShardedLeakyBinsProcess p(std::move(config), s.lambda, s.seed,
                                         opts);
          drive(p, s.n);
        } else {
          par::SequentialCounterLeakyBinsProcess p(std::move(config), s.lambda,
                                                   s.seed);
          drive(p, s.n);
        }
      } else if (s.family == "mixed") {
        MixedSpec spec =
            make_mixed_spec(s.n, s.ratio, s.weights, s.bin_profile);
        const std::uint64_t balls = spec.balls;
        if (ctx.sharded()) {
          par::ShardedMixedProcess p(std::move(spec), s.seed, opts);
          drive(p, balls);
        } else {
          par::SequentialCounterMixedProcess p(std::move(spec), s.seed);
          drive(p, balls);
        }
      } else {
        family_tag(s.family);  // throws the canonical unknown-family error
      }
      return rs;
    },
  });
}

}  // namespace rbb::runner

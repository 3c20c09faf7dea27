#include "runner/registry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include <thread>

#include "engine/process.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "par/sharded_mixed.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_token_process.hpp"
#include "par/sharded_variants.hpp"

namespace rbb::runner {

namespace {

/// A usable sharded port: the type exists, runs under sharded
/// execution, and plugs into the engine like any other process.  The
/// capability of a ProcessFamily is DERIVED from this predicate over
/// the family's src/par/ instantiation -- deleting or breaking a port
/// flips the corresponding experiments to reject --backend=sharded at
/// the same commit, with no bool to forget.
template <typename P>
constexpr bool has_sharded_port() {
  return P::kShardedExec && SimProcess<P>;
}

}  // namespace

bool backend_capable(ProcessFamily family) {
  switch (family) {
    case ProcessFamily::kNone:
      return false;
    case ProcessFamily::kLoadOnly:
      return has_sharded_port<par::ShardedRepeatedBallsProcess>();
    case ProcessFamily::kToken:
      return has_sharded_port<par::ShardedTokenProcess>();
    case ProcessFamily::kTetris:
      return has_sharded_port<par::ShardedTetrisProcess>();
    case ProcessFamily::kDChoices:
      return has_sharded_port<par::ShardedDChoicesProcess>();
    case ProcessFamily::kThreshold:
      return has_sharded_port<par::ShardedThresholdProcess>();
    case ProcessFamily::kLeaky:
      return has_sharded_port<par::ShardedLeakyBinsProcess>();
    case ProcessFamily::kMixed:
      return has_sharded_port<par::ShardedMixedProcess>();
    case ProcessFamily::kKernelSuite:
      return has_sharded_port<par::ShardedRepeatedBallsProcess>() &&
             has_sharded_port<par::ShardedTokenProcess>() &&
             has_sharded_port<par::ShardedTetrisProcess>() &&
             has_sharded_port<par::ShardedDChoicesProcess>();
  }
  return false;
}

void Registry::add(Experiment experiment) {
  if (experiment.name.empty()) {
    throw std::invalid_argument("Registry::add: empty experiment name");
  }
  if (!experiment.run) {
    throw std::invalid_argument("Registry::add: " + experiment.name +
                                " has no run function");
  }
  if (find(experiment.name) != nullptr) {
    throw std::invalid_argument("Registry::add: duplicate experiment " +
                                experiment.name);
  }
  for (const ParamSpec& spec : experiment.params) {
    // seed/trials are prepended below; scale/format/out/check/help are
    // intercepted by the CLI frontends before parameter assignment, so a
    // parameter with one of these names would be silently unsettable via
    // `rbb run` -- exactly the frontend drift the registry exists to
    // prevent.
    for (const char* reserved :
         {"seed", "trials", "backend", "threads", "metrics", "trace",
          "repeat", "trial-parallelism", "checkpoint-dir", "checkpoint-every",
          "checkpoint-keep", "resume-from", "scale", "format", "out", "check",
          "help"}) {
      if (spec.name == reserved) {
        throw std::invalid_argument(
            "Registry::add: " + experiment.name +
            " declares the reserved parameter name --" + spec.name);
      }
    }
  }
  // Every experiment shares the Monte-Carlo knobs and the round-kernel
  // selector; prepending them here keeps the declarations thin and the
  // CLI surface uniform.  --backend=sharded is validated against the
  // experiment's opt-in in run_experiment.
  std::vector<ParamSpec> params = {
      {"seed", ParamSpec::Type::kU64, "1", "root RNG seed"},
      {"trials", ParamSpec::Type::kU64, "0",
       "trials per sweep point (0 = scale default)"},
      {"backend", ParamSpec::Type::kString, "seq",
       "round kernel: seq (single-thread xoshiro) or sharded "
       "(src/par/ counter-RNG kernel; sharded-capable experiments only)"},
      {"threads", ParamSpec::Type::kU64, "0",
       "total thread budget (0 = the shared pool, i.e. all hardware "
       "threads): Monte-Carlo experiments split it between concurrent "
       "trials and each trial's sharded rounds (see "
       "--trial-parallelism), single-instance experiments size the "
       "round team with it; rejected by experiments with no round "
       "kernel"},
      {"metrics", ParamSpec::Type::kFlag, "false",
       "scrape the telemetry registry (src/obs/) after the run and emit "
       "the additive `metrics` block: counter totals, per-phase ns, "
       "barrier-wait fraction, effective parallelism"},
      {"trace", ParamSpec::Type::kString, "",
       "write the run's phase spans as Chrome-trace JSON to this path "
       "(open at https://ui.perfetto.dev; under `sweep` each point "
       "overwrites it, so the last point wins)"},
      {"repeat", ParamSpec::Type::kU64, "1",
       "execute the run K times and keep the fastest execution's results "
       "and wall time (best-of-K timing discipline for perf rows; "
       "--metrics describes the kept execution, --trace the last); "
       "rejected by experiments with no round kernel"},
      {"trial-parallelism", ParamSpec::Type::kString, "auto",
       "trial fan-out width for Monte-Carlo experiments: auto (legacy "
       "shared-pool fan-out, or min(trials, --threads) concurrent trials "
       "when --threads is set) or an explicit K; the thread budget is "
       "split evenly across concurrent trials so each instance's sharded "
       "rounds still parallelize (trial x round nesting); rejected by "
       "experiments with no round kernel"},
      {"checkpoint-dir", ParamSpec::Type::kString, "",
       "write rbb.ckpt.v1 snapshots into this directory "
       "(checkpoint-capable single-instance experiments only, e.g. "
       "trajectory; SIGINT also writes a final checkpoint when set)"},
      {"checkpoint-every", ParamSpec::Type::kU64, "0",
       "checkpoint period in rounds (0 = only the SIGINT/exit checkpoint; "
       "requires --checkpoint-dir)"},
      {"checkpoint-keep", ParamSpec::Type::kU64, "3",
       "retain only the newest K periodic checkpoints (older ones are "
       "pruned after each successful write)"},
      {"resume-from", ParamSpec::Type::kString, "",
       "restore state from this rbb.ckpt.v1 file before running and "
       "continue to the round target (the `rbb resume` verb fills this "
       "in from the checkpoint's own metadata)"},
  };
  params.insert(params.end(),
                std::make_move_iterator(experiment.params.begin()),
                std::make_move_iterator(experiment.params.end()));
  experiment.params = std::move(params);
  experiments_.push_back(std::move(experiment));
}

const Experiment* Registry::find(const std::string& name) const {
  for (const Experiment& experiment : experiments_) {
    if (experiment.name == name) return &experiment;
  }
  return nullptr;
}

namespace {

/// Numeric part of an E-claim ("E12" -> 12); claimless extras sort last.
unsigned long claim_rank(const std::string& claim) {
  if (claim.size() < 2 || claim[0] != 'E') return ~0ul;
  char* end = nullptr;
  const unsigned long v = std::strtoul(claim.c_str() + 1, &end, 10);
  if (end != claim.c_str() + claim.size()) return ~0ul;
  return v;
}

}  // namespace

std::vector<const Experiment*> Registry::catalog() const {
  std::vector<const Experiment*> sorted;
  sorted.reserve(experiments_.size());
  for (const Experiment& experiment : experiments_) {
    sorted.push_back(&experiment);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Experiment* a, const Experiment* b) {
              const unsigned long ra = claim_rank(a->claim);
              const unsigned long rb = claim_rank(b->claim);
              if (ra != rb) return ra < rb;
              return a->name < b->name;
            });
  return sorted;
}

TrialPlan RunContext::trial_plan(std::uint32_t trials) const {
  const std::string& mode = params.str("trial-parallelism");
  const unsigned requested = threads();
  TrialPlan plan;
  plan.backend = sharded() ? Backend::kSharded : Backend::kSeq;
  if (mode == "auto" && requested == 0) return plan;  // legacy fan-out
  const unsigned budget =
      requested != 0 ? requested : ThreadPool::global().thread_count() + 1;
  std::uint64_t width = 0;
  if (mode == "auto") {
    width = budget;
  } else {
    char* end = nullptr;
    width = std::strtoull(mode.c_str(), &end, 10);
    if (end != mode.c_str() + mode.size() || width == 0) {
      throw std::invalid_argument(
          "--trial-parallelism expects auto or a positive integer, got \"" +
          mode + "\"");
    }
  }
  if (trials != 0) width = std::min<std::uint64_t>(width, trials);
  plan.trial_workers = static_cast<std::uint32_t>(std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(width, 0xffffffffull)));
  plan.process_threads = std::max(1u, budget / plan.trial_workers);
  return plan;
}

CompletedRun run_experiment(const Experiment& experiment,
                            const ParamValues& values, BenchScale scale) {
  const std::string& backend = values.str("backend");
  if (backend != "seq" && backend != "sharded") {
    throw std::invalid_argument("--backend expects seq or sharded, got \"" +
                                backend + "\"");
  }
  if (backend == "sharded" && !backend_capable(experiment.family)) {
    throw std::invalid_argument(
        experiment.name +
        " does not support --backend=sharded: its process family has no "
        "src/par/ instantiation of the policy core (run with "
        "--backend=seq, or pick a backend-capable experiment such as "
        "sharded_scaling)");
  }
  if (experiment.family == ProcessFamily::kNone &&
      (values.u64("threads") != 0 ||
       values.str("trial-parallelism") != "auto")) {
    throw std::invalid_argument(
        experiment.name +
        " does not accept --threads or --trial-parallelism: it runs no "
        "round kernel, so there is no thread budget to size (drop the "
        "flags, or pick a backend-capable experiment)");
  }
  if (experiment.single_instance && values.u64("trials") != 0) {
    throw std::invalid_argument(
        experiment.name +
        " does not accept --trials: it runs a single instance, so there "
        "are no trials to count (drop the flag)");
  }
  const std::uint64_t repeat = values.u64("repeat");
  if (repeat == 0) {
    throw std::invalid_argument("--repeat expects a positive count");
  }
  if (experiment.family == ProcessFamily::kNone && repeat != 1) {
    throw std::invalid_argument(
        experiment.name +
        " does not accept --repeat: it runs no round kernel, so there is "
        "no perf row to time best-of-K (drop the flag, or pick a "
        "backend-capable experiment)");
  }
  const bool wants_checkpoints = !values.str("checkpoint-dir").empty() ||
                                 values.u64("checkpoint-every") != 0 ||
                                 !values.str("resume-from").empty();
  if (wants_checkpoints && !experiment.checkpointable) {
    throw std::invalid_argument(
        experiment.name +
        " does not support checkpointing: --checkpoint-dir/"
        "--checkpoint-every/resume only apply to checkpoint-capable "
        "single-instance experiments (e.g. trajectory)");
  }
  if (values.u64("checkpoint-every") != 0 &&
      values.str("checkpoint-dir").empty()) {
    throw std::invalid_argument(
        "--checkpoint-every requires --checkpoint-dir");
  }
  if (wants_checkpoints && repeat != 1) {
    throw std::invalid_argument(
        "--repeat is incompatible with checkpointing (a best-of-K rerun "
        "would overwrite the checkpoint stream)");
  }
  // Validate the --trial-parallelism grammar up front, even for run
  // functions that never consult the plan: a typo must fail the run,
  // not silently fall back to the legacy fan-out.
  const RunContext ctx{values, scale};
  (void)ctx.trial_plan(1);

  const bool metrics_on = values.flag("metrics");
  const std::string& trace_path = values.str("trace");
  const bool telemetry = metrics_on || !trace_path.empty();
  CompletedRun run;
  obs::MetricsSnapshot best_snap;
  double best_wall = -1;
  // Best-of-K: rerun the whole experiment and keep the fastest
  // execution's results, wall time, and metrics scrape (trials are
  // seed-deterministic, so every execution computes identical tables --
  // only the timing varies).  The trace buffer holds the last
  // execution's spans, matching sweep's last-point-wins convention.
  for (std::uint64_t k = 0; k < repeat; ++k) {
    if (telemetry) {
      // Fresh totals per execution; the scrape below then reads exactly
      // this one.  Under RBB_TELEMETRY=0 these are no-ops and the
      // metrics block reports zeros (the flags stay accepted so scripts
      // need not care how the binary was built).
      obs::reset();
      if (!trace_path.empty()) obs::start_trace();
      obs::set_enabled(true);
    }
    const auto t0 = std::chrono::steady_clock::now();
    ResultSet results = experiment.run(ctx);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (telemetry) obs::set_enabled(false);
    if (best_wall < 0 || wall < best_wall) {
      best_wall = wall;
      run.results = std::move(results);
      if (metrics_on) best_snap = obs::scrape();
    }
  }
  run.meta.wall_seconds = best_wall;
  run.meta.experiment = experiment.name;
  run.meta.claim = experiment.claim;
  run.meta.title = experiment.title;
  run.meta.scale = to_string(scale);
  run.meta.git_rev = git_revision();
  fill_meta_params(run.meta, values);

  // Honest thread accounting, in every result: what the machine has,
  // what was asked for, and how many threads could actually run tasks
  // (an explicit sharded --threads=k builds a private pool of k;
  // everything else shares the global pool plus the submitting thread).
  const std::uint32_t threads_requested = values.u32("threads");
  run.meta.parallelism.hardware_concurrency =
      std::thread::hardware_concurrency();
  run.meta.parallelism.threads_requested = threads_requested;
  run.meta.parallelism.runnable_threads =
      (backend == "sharded" && threads_requested >= 1)
          ? threads_requested
          : ThreadPool::global().thread_count() + 1;
  run.meta.parallelism.repeat = repeat;

  if (telemetry) {
    if (!trace_path.empty()) {
      obs::stop_trace();
      if (!obs::write_chrome_trace_file(trace_path)) {
        throw std::runtime_error("cannot write trace file " + trace_path);
      }
    }
    if (metrics_on) {
      const obs::MetricsSnapshot& snap = best_snap;
      run.meta.metrics.present = true;
      for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
        run.meta.metrics.counters.push_back(RunMeta::Metric{
            to_string(static_cast<obs::Counter>(c)), snap.counters[c]});
      }
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        run.meta.metrics.phase_ns.push_back(RunMeta::Metric{
            to_string(static_cast<obs::Phase>(p)), snap.phase_ns[p]});
      }
      run.meta.metrics.barrier_wait_fraction = snap.barrier_wait_fraction();
      run.meta.metrics.pipeline_fill_fraction = snap.pipeline_fill_fraction();
      run.meta.metrics.effective_parallelism =
          std::min(run.meta.parallelism.runnable_threads,
                   run.meta.parallelism.hardware_concurrency == 0
                       ? run.meta.parallelism.runnable_threads
                       : run.meta.parallelism.hardware_concurrency);
    }
  }
  return run;
}

const Registry& default_registry() {
  static const Registry* const registry = [] {
    auto* r = new Registry();
    register_all_experiments(*r);
    return r;
  }();
  return *registry;
}

std::vector<std::uint32_t> default_n_sweep(BenchScale scale) {
  switch (scale) {
    case BenchScale::kSmoke: return {128, 256};
    case BenchScale::kPaper: return {256, 1024, 4096, 16384};
    // mega is meaningful only for the sharded single-instance
    // experiments; the Monte-Carlo sweeps fall back to paper sizes.
    case BenchScale::kMega: return {256, 1024, 4096, 16384};
    case BenchScale::kDefault: break;
  }
  return {256, 1024, 4096};
}

#ifndef RBB_GIT_REV
#define RBB_GIT_REV "unknown"
#endif

const char* git_revision() { return RBB_GIT_REV; }

}  // namespace rbb::runner

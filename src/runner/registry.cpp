#include "runner/registry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "support/meminfo.hpp"

namespace rbb::runner {

namespace {

constexpr unsigned bit(ExperimentKind kind) {
  return 1u << static_cast<unsigned>(kind);
}

constexpr unsigned kAllKinds =
    bit(ExperimentKind::kAnalytic) | bit(ExperimentKind::kMonteCarlo) |
    bit(ExperimentKind::kTrialKernel) | bit(ExperimentKind::kKernelSuite) |
    bit(ExperimentKind::kCheckpointed);
constexpr unsigned kTrialKinds =
    bit(ExperimentKind::kMonteCarlo) | bit(ExperimentKind::kTrialKernel);
constexpr unsigned kBackendKinds =
    bit(ExperimentKind::kTrialKernel) | bit(ExperimentKind::kCheckpointed);
constexpr unsigned kThreadKinds =
    kBackendKinds | bit(ExperimentKind::kKernelSuite);
constexpr unsigned kCheckpointKinds = bit(ExperimentKind::kCheckpointed);

constexpr std::uint64_t kDefaultCheckpointKeep = 3;

/// One common spec and the kinds (bit set) whose run functions read it.
struct CommonSpec {
  unsigned kinds;
  ParamSpec spec;
};

/// Every common spec, in the order Registry::add prepends them.
const std::vector<CommonSpec>& common_specs() {
  static const std::vector<CommonSpec> specs = {
      {kAllKinds & ~bit(ExperimentKind::kAnalytic),
       {"seed", ParamSpec::Type::kU64, "1", "root RNG seed"}},
      {kTrialKinds,
       {"trials", ParamSpec::Type::kU64, "0",
        "trials per sweep point (0 = scale default)"}},
      {kBackendKinds,
       {"backend", ParamSpec::Type::kString, "seq",
        "round kernel: seq (sequential) or sharded (src/par/ "
        "counter-RNG kernel)"}},
      {kThreadKinds,
       {"threads", ParamSpec::Type::kU64, "0",
        "total thread budget (0 = the shared pool, i.e. all hardware "
        "threads): Monte-Carlo experiments split it between concurrent "
        "trials and each trial's sharded rounds (see "
        "--trial-parallelism), single-instance experiments size the "
        "round team with it"}},
      {kAllKinds,
       {"metrics", ParamSpec::Type::kFlag, "false",
        "scrape the telemetry registry (src/obs/) after the run and emit "
        "the additive `metrics` block: counter totals, per-phase ns, "
        "barrier-wait fraction, effective parallelism (CPU seconds per "
        "wall second)"}},
      {kAllKinds,
       {"trace", ParamSpec::Type::kString, "",
        "write the run's phase spans as Chrome-trace JSON to this path "
        "(open at https://ui.perfetto.dev; under `sweep` each point "
        "overwrites it, so the last point wins)"}},
      {kThreadKinds,
       {"repeat", ParamSpec::Type::kU64, "1",
        "execute the run K times and keep the fastest execution's "
        "results and wall time (best-of-K timing discipline for perf "
        "rows; --metrics describes the kept execution, --trace the "
        "last)"}},
      {bit(ExperimentKind::kTrialKernel),
       {"trial-parallelism", ParamSpec::Type::kString, "auto",
        "trial fan-out width: auto (legacy shared-pool fan-out, or "
        "min(trials, --threads) concurrent trials when --threads is set) "
        "or an explicit K; the thread budget is split evenly across "
        "concurrent trials so each instance's sharded rounds still "
        "parallelize (trial x round nesting)"}},
      {kCheckpointKinds,
       {"checkpoint-dir", ParamSpec::Type::kString, "",
        "write rbb.ckpt.v1 snapshots into this directory (SIGINT also "
        "writes a final checkpoint when set)"}},
      {kCheckpointKinds,
       {"checkpoint-every", ParamSpec::Type::kU64, "0",
        "checkpoint period in rounds (0 = only the SIGINT/exit "
        "checkpoint; requires --checkpoint-dir)"}},
      {kCheckpointKinds,
       {"checkpoint-keep", ParamSpec::Type::kU64,
        std::to_string(kDefaultCheckpointKeep),
        "retain only the newest K periodic checkpoints (older ones are "
        "pruned after each successful write; requires --checkpoint-dir)"}},
      {kCheckpointKinds,
       {"resume-from", ParamSpec::Type::kString, "",
        "restore state from this rbb.ckpt.v1 file before running and "
        "continue to the round target (the `rbb resume` verb fills this "
        "in from the checkpoint's own metadata)"}},
  };
  return specs;
}

}  // namespace

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
  std::vector<ParamSpec> params;
  for (const CommonSpec& common : common_specs()) {
    if ((common.kinds & bit(experiment.kind)) != 0) {
      params.push_back(common.spec);
    }
  }
  params.insert(params.end(),
                std::make_move_iterator(experiment.params.begin()),
                std::make_move_iterator(experiment.params.end()));
  // A name declared twice would shadow one of its specs, and the CLI
  // frontends intercept scale/format/out/check/help before parameter
  // assignment: either way the parameter could never be set.
  std::set<std::string> taken = {"scale", "format", "out", "check", "help"};
  for (const ParamSpec& spec : params) {
    if (!taken.insert(spec.name).second) {
      throw std::invalid_argument("Registry::add: " + experiment.name +
                                  " declares --" + spec.name +
                                  ", which is already taken");
    }
  }
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
  if (values.has("backend")) {
    const std::string& backend = values.str("backend");
    if (backend != "seq" && backend != "sharded") {
      throw std::invalid_argument("--backend expects seq or sharded, got \"" +
                                  backend + "\"");
    }
  }
  const std::uint64_t repeat = values.has("repeat") ? values.u64("repeat") : 1;
  if (repeat == 0) {
    throw std::invalid_argument("--repeat expects a positive count");
  }
  if (values.has("checkpoint-dir")) {
    const bool has_dir = !values.str("checkpoint-dir").empty();
    if (!has_dir && values.u64("checkpoint-every") != 0) {
      throw std::invalid_argument(
          "--checkpoint-every requires --checkpoint-dir");
    }
    if (!has_dir && values.u64("checkpoint-keep") != kDefaultCheckpointKeep) {
      throw std::invalid_argument(
          "--checkpoint-keep requires --checkpoint-dir");
    }
    if ((has_dir || !values.str("resume-from").empty()) && repeat != 1) {
      throw std::invalid_argument(
          "--repeat is incompatible with checkpointing (a best-of-K rerun "
          "would overwrite the checkpoint stream)");
    }
  }
  // Validate the --trial-parallelism grammar before the run starts, so
  // a typo fails before any work is done.
  const RunContext ctx{values, scale};
  if (values.has("trial-parallelism")) (void)ctx.trial_plan(1);

  const bool metrics_on = values.flag("metrics");
  const std::string& trace_path = values.str("trace");
  const bool telemetry = metrics_on || !trace_path.empty();
  CompletedRun run;
  obs::MetricsSnapshot best_snap;
  double best_wall = -1;
  double best_busy_cores = 0;
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
    const double cpu0 = process_cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    ResultSet results = experiment.run(ctx);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double cpu = process_cpu_seconds() - cpu0;
    if (telemetry) obs::set_enabled(false);
    if (best_wall < 0 || wall < best_wall) {
      best_wall = wall;
      best_busy_cores = wall > 0 ? cpu / wall : 0;
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

  // Thread accounting, in every result: what the machine has and what
  // was asked for.  How many cores the run kept busy is measured, not
  // derived from flags: --metrics reports it below.
  run.meta.parallelism.hardware_concurrency =
      std::thread::hardware_concurrency();
  run.meta.parallelism.threads_requested = ctx.threads();
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
      run.meta.metrics.effective_parallelism = best_busy_cores;
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

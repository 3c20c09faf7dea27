// The experiment registry behind the `rbb` CLI (DESIGN.md Sect. 1).
//
// Each of the repository's experiments registers exactly once: a CLI
// name, the DESIGN.md claim it reproduces (E1..E21, empty for the extras
// that ride outside the numbered map), a one-line title, prose
// description, typed parameter specs, and a run function returning a
// structured ResultSet.  Everything downstream is derived from this
// single declaration:
//
//   rbb list / describe / run / sweep   (runner/runner.cpp)
//   the generated docs/experiments.md   (runner/docgen.cpp)
//   the registry completeness test      (tests/runner/)
//
// so the catalog, the CLI surface, and the code can never drift apart.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/trials.hpp"
#include "runner/params.hpp"
#include "runner/result.hpp"
#include "support/scale.hpp"
#include "support/thread_pool.hpp"

namespace rbb::runner {

/// What an experiment's run function sees: its parsed parameters plus
/// the bench scale the runner resolved (CLI --scale or RBB_BENCH_SCALE).
struct RunContext {
  const ParamValues& params;
  BenchScale scale = BenchScale::kDefault;

  [[nodiscard]] std::uint64_t seed() const { return params.u64("seed"); }

  /// True when the run asked for the sharded round kernel (src/par/)
  /// via --backend=sharded.  Only reachable inside experiments whose
  /// declared ProcessFamily is backend-capable; run_experiment rejects
  /// the flag elsewhere.
  [[nodiscard]] bool sharded() const {
    return params.str("backend") == "sharded";
  }

  /// The --threads budget: 0 = the shared global pool (all hardware
  /// threads), k = k threads in total (trial_plan splits it between
  /// trials and rounds; single-instance experiments give it all to the
  /// round team).  run_experiment rejects it on ProcessFamily::kNone.
  [[nodiscard]] unsigned threads() const {
    return static_cast<unsigned>(params.u32("threads"));
  }

  /// The trial count: the --trials override wins (range-checked), else
  /// the scale picks.
  [[nodiscard]] std::uint32_t trials_or(std::uint32_t smoke,
                                        std::uint32_t dflt,
                                        std::uint32_t paper) const {
    const std::uint32_t cli_trials = params.u32("trials");
    if (cli_trials != 0) return cli_trials;
    return by_scale(scale, smoke, dflt, paper);
  }

  /// Checkpointing surface (--checkpoint-dir/--checkpoint-every/
  /// --checkpoint-keep, plus the resume-from path the `rbb resume` verb
  /// fills in).  Only checkpoint-capable experiments see non-default
  /// values; run_experiment rejects the flags elsewhere.
  [[nodiscard]] std::string checkpoint_dir() const {
    return params.str("checkpoint-dir");
  }
  [[nodiscard]] std::uint64_t checkpoint_every() const {
    return params.u64("checkpoint-every");
  }
  [[nodiscard]] std::uint64_t checkpoint_keep() const {
    return params.u64("checkpoint-keep");
  }
  [[nodiscard]] std::string resume_from() const {
    return params.str("resume-from");
  }

  /// The TrialPlan of a Monte-Carlo sweep (engine/trials.hpp): the
  /// --backend kernel, and the thread budget split between trial
  /// fan-out and intra-instance sharded rounds (--trial-parallelism).
  ///
  ///   auto, --threads unset   the legacy plan: trials fan out on the
  ///                           shared pool, instances run sequential
  ///   auto, --threads=T       min(trials, T) concurrent trials, each
  ///                           instance sharded over T / that many
  ///   K                       exactly min(trials, K) concurrent
  ///                           trials; the budget (--threads, else all
  ///                           hardware threads) is split evenly
  ///
  /// Throws std::invalid_argument on a malformed value (anything other
  /// than "auto" or a positive integer).
  [[nodiscard]] TrialPlan trial_plan(std::uint32_t trials) const;
};

/// Which process-core family an experiment's run function instantiates
/// (the variant axis of the policy matrix, DESIGN.md Sect. 5).
///
/// This replaced the old hand-maintained `sharded_capable` bool: an
/// experiment declares WHAT it runs, and whether --backend=sharded is
/// accepted is *derived* from the declared family -- backend_capable()
/// checks, at compile time, that a sharded instantiation of the
/// family's kernel exists and satisfies the engine's SimProcess
/// concept.  Adding a sharded port to a kernel therefore flips every
/// experiment of that family at once, and the flag can never drift
/// from the code.
enum class ProcessFamily {
  kNone,      // no round kernel (exact chains, Jackson, samplers, ...)
  kLoadOnly,  // the paper's load-only process
  kToken,     // FIFO token / traversal processes
  kTetris,    // the auxiliary Tetris process
  kDChoices,  // repeated d-choices
  kThreshold, // 1-2-3-Toolkit threshold allocation
  kLeaky,     // leaky bins
  kMixed,     // mixed-regime engine (m != n, weights, heterogeneity)
  kKernelSuite,  // drives several kernel families (sharded_scaling)
};

/// True iff the family's kernel has a sharded instantiation (derived
/// from the src/par/ types; see registry.cpp).
[[nodiscard]] bool backend_capable(ProcessFamily family);

/// One registered experiment.
struct Experiment {
  std::string name;         // CLI name, e.g. "convergence"
  std::string claim;        // DESIGN.md Sect. 4 E-number, "" for extras
  std::string title;        // one-line claim summary (list / docs)
  std::string description;  // prose for describe / docs
  /// The process family the run function drives.  --backend=sharded is
  /// accepted iff backend_capable(family); run_experiment rejects it
  /// elsewhere.  kNone (the default) never accepts the flag.
  ProcessFamily family = ProcessFamily::kNone;
  /// True for single-instance experiments that honor the checkpoint
  /// surface (--checkpoint-dir/--checkpoint-every, `rbb resume`).
  /// run_experiment rejects the checkpoint flags on every other
  /// experiment so they can never be silently ignored.
  bool checkpointable = false;
  /// True for experiments that run exactly one instance, with no trial
  /// loop.  run_experiment rejects --trials on them so it can never be
  /// silently ignored.
  bool single_instance = false;
  std::vector<ParamSpec> params;  // registry prepends seed/trials/backend/...
  std::function<ResultSet(const RunContext&)> run;
};

/// Name-keyed experiment collection.  add() validates the declaration
/// and prepends the common seed/trials specs every experiment shares.
class Registry {
 public:
  /// Registers an experiment; throws std::invalid_argument on an empty
  /// name, a duplicate name, or a missing run function.
  void add(Experiment experiment);

  [[nodiscard]] const Experiment* find(const std::string& name) const;

  /// Registration order.
  [[nodiscard]] const std::vector<Experiment>& experiments() const {
    return experiments_;
  }

  /// Catalog order: by numeric claim (E1, E2, ...), then the claimless
  /// extras, alphabetically within ties.
  [[nodiscard]] std::vector<const Experiment*> catalog() const;

 private:
  std::vector<Experiment> experiments_;
};

/// One finished experiment run: the structured results plus the
/// provenance metadata (params, seed, scale, git rev, wall time) every
/// serialization format embeds.
struct CompletedRun {
  ResultSet results;
  RunMeta meta;
};

/// Runs `experiment` with `values` at `scale` under a wall-time clock
/// and assembles the metadata -- the one execution path shared by
/// `rbb run`, `rbb sweep`, and the back-compat bench mains.  Propagates
/// whatever the run function throws (callers own the error boundary).
[[nodiscard]] CompletedRun run_experiment(const Experiment& experiment,
                                          const ParamValues& values,
                                          BenchScale scale);

/// The process-wide registry holding all experiments (built on first
/// use via register_all_experiments).
[[nodiscard]] const Registry& default_registry();

/// Registers every experiment in src/runner/experiments/ (one
/// register_* function per file; see register_all.cpp).
void register_all_experiments(Registry& registry);

/// The n-sweep most experiments share, by scale (the old
/// bench_common.hpp helper, now owned by the runner layer).
[[nodiscard]] std::vector<std::uint32_t> default_n_sweep(BenchScale scale);

/// Compile-time git revision baked in by CMake ("unknown" outside a
/// configured checkout); stamped into every run's metadata.
[[nodiscard]] const char* git_revision();

}  // namespace rbb::runner

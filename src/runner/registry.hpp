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
/// the bench scale of the run (--scale).
struct RunContext {
  const ParamValues& params;
  BenchScale scale = BenchScale::kDefault;

  [[nodiscard]] std::uint64_t seed() const { return params.u64("seed"); }

  /// True when the run asked for the sharded round kernel (src/par/)
  /// via --backend=sharded; false where the kind declares no --backend.
  [[nodiscard]] bool sharded() const {
    return params.has("backend") && params.str("backend") == "sharded";
  }

  /// The --threads budget: 0 = the shared global pool (all hardware
  /// threads), k = k threads in total (trial_plan splits it between
  /// trials and rounds; single-instance experiments give it all to the
  /// round team).  0 where the kind declares no --threads.
  [[nodiscard]] unsigned threads() const {
    return params.has("threads") ? static_cast<unsigned>(params.u32("threads"))
                                 : 0;
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
  /// fills in).  Declared by ExperimentKind::kCheckpointed only.
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

/// Which common flags an experiment's run function reads.  Registry::add
/// prepends exactly the common specs of the kind (plus --metrics and
/// --trace, which every experiment takes), so a common flag the run
/// would ignore is an unknown option to the parser.
enum class ExperimentKind {
  kAnalytic,      // exact computation: no seed, no trials (exact_chain)
  kMonteCarlo,    // trials without a TrialPlan: --seed --trials
  kTrialKernel,   // trials through ctx.trial_plan: --seed --trials
                  // --backend --threads --trial-parallelism --repeat
  kKernelSuite,   // one timed instance per backend: --seed --threads
                  // --repeat (sharded_scaling)
  kCheckpointed,  // one checkpointable instance: --seed --backend
                  // --threads --repeat and the checkpoint flags
};

/// One registered experiment, built with designated initializers in its
/// register_* function.  Members with a default may be left out.
struct Experiment {
  std::string name;         // CLI name, e.g. "convergence"
  std::string claim{};      // DESIGN.md Sect. 4 E-number, "" for extras
  std::string title;        // one-line claim summary (list / docs)
  std::string description;  // prose for describe / docs
  /// The common flags the run function reads (see ExperimentKind).
  ExperimentKind kind = ExperimentKind::kMonteCarlo;
  /// The experiment's own specs; add() prepends the kind's common ones.
  std::vector<ParamSpec> params{};
  std::function<ResultSet(const RunContext&)> run;
};

/// Name-keyed experiment collection.  add() validates the declaration
/// and prepends the common specs of the experiment's kind.
class Registry {
 public:
  /// Registers an experiment; throws std::invalid_argument on an empty
  /// name, a duplicate name, a missing run function, or a parameter
  /// declared twice (a clash with a prepended common spec or a frontend
  /// option included).
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
/// `rbb run`, `rbb sweep` and `rbb resume`.  Propagates whatever the run
/// function throws (callers own the error boundary).
[[nodiscard]] CompletedRun run_experiment(const Experiment& experiment,
                                          const ParamValues& values,
                                          BenchScale scale);

/// The process-wide registry holding all experiments (built on first
/// use via register_all_experiments).
[[nodiscard]] const Registry& default_registry();

/// Registers every experiment in src/runner/experiments/ (one
/// register_* function per file; see register_all.cpp).
void register_all_experiments(Registry& registry);

/// The n-sweep most experiments share, by scale.
[[nodiscard]] std::vector<std::uint32_t> default_n_sweep(BenchScale scale);

/// Compile-time git revision baked in by CMake ("unknown" outside a
/// configured checkout); stamped into every run's metadata.
[[nodiscard]] const char* git_revision();

}  // namespace rbb::runner

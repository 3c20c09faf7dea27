// Registry completeness: the experiment map of DESIGN.md Sect. 4 and
// the registered catalog can never drift apart.
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/registry.hpp"

namespace rbb::runner {
namespace {

TEST(Registry, EveryDesignClaimHasARegisteredExperiment) {
  // E1..E23 is the numbered experiment map of DESIGN.md Sect. 4.
  std::set<std::string> claimed;
  for (const Experiment& e : default_registry().experiments()) {
    if (!e.claim.empty()) claimed.insert(e.claim);
  }
  for (int i = 1; i <= 23; ++i) {
    const std::string claim = "E" + std::to_string(i);
    EXPECT_TRUE(claimed.count(claim) == 1)
        << claim << " from DESIGN.md Sect. 4 has no registered experiment";
  }
}

TEST(Registry, HoldsAllTwentyNineExperiments) {
  EXPECT_EQ(default_registry().experiments().size(), 29u);
}

TEST(Registry, BackendCapabilityIsDerivedFromTheDeclaredFamily) {
  // --backend=sharded is accepted exactly where the experiment's
  // declared process family has a src/par/ instantiation of the policy
  // core -- the capability is derived, not a hand-maintained bool.
  std::set<std::string> capable;
  for (const Experiment& e : default_registry().experiments()) {
    if (backend_capable(e.family)) capable.insert(e.name);
  }
  EXPECT_EQ(capable,
            (std::set<std::string>{"convergence", "stability", "empty_bins",
                                   "tetris_stability", "dchoices",
                                   "leaky_bins", "cover_time", "progress",
                                   "sharded_scaling", "max_load_regimes",
                                   "mixed_regime", "threshold_allocation",
                                   "trajectory"}));
}

TEST(Registry, EveryKernelFamilyIsBackendCapable) {
  // The policy refactor's payoff: every variant of the process core has
  // a sharded instantiation, so every kernel family is capable; only
  // kNone (no round kernel) rejects the flag.
  EXPECT_FALSE(backend_capable(ProcessFamily::kNone));
  EXPECT_TRUE(backend_capable(ProcessFamily::kLoadOnly));
  EXPECT_TRUE(backend_capable(ProcessFamily::kToken));
  EXPECT_TRUE(backend_capable(ProcessFamily::kTetris));
  EXPECT_TRUE(backend_capable(ProcessFamily::kDChoices));
  EXPECT_TRUE(backend_capable(ProcessFamily::kThreshold));
  EXPECT_TRUE(backend_capable(ProcessFamily::kLeaky));
  EXPECT_TRUE(backend_capable(ProcessFamily::kMixed));
  EXPECT_TRUE(backend_capable(ProcessFamily::kKernelSuite));
}

TEST(Registry, NamesAreUniqueAndDeclarationsComplete) {
  std::set<std::string> names;
  for (const Experiment& e : default_registry().experiments()) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate name " << e.name;
    EXPECT_FALSE(e.title.empty()) << e.name << " has no title";
    EXPECT_FALSE(e.description.empty()) << e.name << " has no description";
    EXPECT_TRUE(static_cast<bool>(e.run)) << e.name << " has no run fn";
    // The registry prepends the common Monte-Carlo, backend, and
    // telemetry knobs.
    ASSERT_GE(e.params.size(), 8u) << e.name;
    EXPECT_EQ(e.params[0].name, "seed") << e.name;
    EXPECT_EQ(e.params[1].name, "trials") << e.name;
    EXPECT_EQ(e.params[2].name, "backend") << e.name;
    EXPECT_EQ(e.params[2].default_value, "seq") << e.name;
    EXPECT_EQ(e.params[3].name, "threads") << e.name;
    EXPECT_EQ(e.params[4].name, "metrics") << e.name;
    EXPECT_EQ(e.params[4].type, ParamSpec::Type::kFlag) << e.name;
    EXPECT_EQ(e.params[5].name, "trace") << e.name;
    EXPECT_EQ(e.params[6].name, "repeat") << e.name;
    EXPECT_EQ(e.params[6].default_value, "1") << e.name;
    EXPECT_EQ(e.params[7].name, "trial-parallelism") << e.name;
    EXPECT_EQ(e.params[7].default_value, "auto") << e.name;
    for (const ParamSpec& spec : e.params) {
      EXPECT_FALSE(spec.help.empty())
          << e.name << " --" << spec.name << " has no help text";
      EXPECT_TRUE(spec.type == ParamSpec::Type::kFlag ||
                  parses_as(spec.default_value, spec.type))
          << e.name << " --" << spec.name << " default \""
          << spec.default_value << "\" does not parse as its own type";
    }
  }
}

TEST(Registry, CatalogSortsByClaimWithExtrasLast) {
  const auto catalog = default_registry().catalog();
  ASSERT_EQ(catalog.size(), 29u);
  EXPECT_EQ(catalog.front()->claim, "E1");
  EXPECT_TRUE(catalog[catalog.size() - 1]->claim.empty());
  EXPECT_TRUE(catalog[catalog.size() - 2]->claim.empty());
  EXPECT_TRUE(catalog[catalog.size() - 3]->claim.empty());
  // Numbered claims are non-decreasing across the catalog prefix.
  unsigned long last = 0;
  for (const Experiment* e : catalog) {
    if (e->claim.empty()) break;
    const unsigned long rank = std::stoul(e->claim.substr(1));
    EXPECT_GE(rank, last);
    last = rank;
  }
}

TEST(Registry, FindIsExactMatch) {
  EXPECT_NE(default_registry().find("stability"), nullptr);
  EXPECT_EQ(default_registry().find("stabilit"), nullptr);
  EXPECT_EQ(default_registry().find(""), nullptr);
}

TEST(Registry, AddRejectsBadDeclarations) {
  Registry registry;
  Experiment nameless;
  nameless.run = [](const RunContext&) { return ResultSet{}; };
  EXPECT_THROW(registry.add(nameless), std::invalid_argument);

  Experiment runless;
  runless.name = "x";
  EXPECT_THROW(registry.add(runless), std::invalid_argument);

  Experiment ok;
  ok.name = "x";
  ok.title = "t";
  ok.run = [](const RunContext&) { return ResultSet{}; };
  registry.add(ok);
  Experiment dup = ok;
  EXPECT_THROW(registry.add(dup), std::invalid_argument);

  Experiment redeclares;
  redeclares.name = "y";
  redeclares.params = {{"seed", ParamSpec::Type::kU64, "1", "clash"}};
  redeclares.run = [](const RunContext&) { return ResultSet{}; };
  EXPECT_THROW(registry.add(redeclares), std::invalid_argument);

  // CLI-reserved option names would be intercepted by `rbb run` before
  // parameter assignment (or shadow a prepended common spec) and be
  // silently unsettable.
  for (const char* reserved :
       {"backend", "threads", "metrics", "trace", "repeat",
        "trial-parallelism", "scale", "format", "out",
        "check", "help"}) {
    Experiment clash;
    clash.name = std::string("clash_") + reserved;
    clash.params = {{reserved, ParamSpec::Type::kString, "", "clash"}};
    clash.run = [](const RunContext&) { return ResultSet{}; };
    EXPECT_THROW(registry.add(clash), std::invalid_argument) << reserved;
  }
}

TEST(Registry, RunProducesTablesAtTinyScale) {
  // End-to-end through a real registration: one tiny stability run.
  const Experiment* e = default_registry().find("stability");
  ASSERT_NE(e, nullptr);
  ParamValues values(e->params);
  ASSERT_TRUE(values.set("trials", "1"));
  ASSERT_TRUE(values.set("n", "32"));
  ASSERT_TRUE(values.set("window-factor", "2"));
  const RunContext ctx{values, BenchScale::kSmoke};
  const ResultSet rs = e->run(ctx);
  ASSERT_EQ(rs.tables().size(), 1u);
  EXPECT_EQ(rs.tables().front().id, "E1_stability");
  EXPECT_EQ(rs.tables().front().data.row_count(), 1u);
}

TEST(Registry, RepeatKeepsOneExecutionAndRecordsTheCount) {
  const Experiment* e = default_registry().find("stability");
  ASSERT_NE(e, nullptr);
  ParamValues values(e->params);
  ASSERT_TRUE(values.set("trials", "1"));
  ASSERT_TRUE(values.set("n", "32"));
  ASSERT_TRUE(values.set("window-factor", "2"));
  ASSERT_TRUE(values.set("repeat", "3"));
  const CompletedRun run = run_experiment(*e, values, BenchScale::kSmoke);
  // Best-of-3 serializes exactly one execution's tables (trials are
  // seed-deterministic, so all three computed the same rows).
  ASSERT_EQ(run.results.tables().size(), 1u);
  EXPECT_EQ(run.results.tables().front().data.row_count(), 1u);
  EXPECT_EQ(run.meta.parallelism.repeat, 3u);
  EXPECT_GE(run.meta.wall_seconds, 0.0);

  ASSERT_TRUE(values.set("repeat", "0"));
  EXPECT_THROW(run_experiment(*e, values, BenchScale::kSmoke),
               std::invalid_argument);
}

TEST(Registry, TrialPlanSplitsTheThreadBudget) {
  const Experiment* e = default_registry().find("stability");
  ASSERT_NE(e, nullptr);
  ParamValues values(e->params);
  const RunContext ctx{values, BenchScale::kSmoke};

  // auto + --threads unset: the legacy shared-pool fan-out.
  EXPECT_EQ(ctx.trial_plan(8).trial_workers, 0u);

  // auto + an explicit budget: min(trials, budget) concurrent trials,
  // the budget split evenly across them.
  ASSERT_TRUE(values.set("threads", "8"));
  EXPECT_EQ(ctx.trial_plan(4).trial_workers, 4u);
  EXPECT_EQ(ctx.trial_plan(4).process_threads, 2u);
  EXPECT_EQ(ctx.trial_plan(100).trial_workers, 8u);
  EXPECT_EQ(ctx.trial_plan(100).process_threads, 1u);

  // Explicit width: the fan-out is pinned, the rest goes per-instance.
  ASSERT_TRUE(values.set("trial-parallelism", "2"));
  EXPECT_EQ(ctx.trial_plan(100).trial_workers, 2u);
  EXPECT_EQ(ctx.trial_plan(100).process_threads, 4u);
  ASSERT_TRUE(values.set("trial-parallelism", "1"));
  EXPECT_EQ(ctx.trial_plan(100).trial_workers, 1u);
  EXPECT_EQ(ctx.trial_plan(100).process_threads, 8u);

  // Malformed values fail loudly.
  ASSERT_TRUE(values.set("trial-parallelism", "fast"));
  EXPECT_THROW(ctx.trial_plan(4), std::invalid_argument);
  ASSERT_TRUE(values.set("trial-parallelism", "0"));
  EXPECT_THROW(ctx.trial_plan(4), std::invalid_argument);
}

TEST(Registry, TrialPlanCarriesTheBackend) {
  const Experiment* e = default_registry().find("stability");
  ASSERT_NE(e, nullptr);
  ParamValues values(e->params);
  const RunContext ctx{values, BenchScale::kSmoke};
  EXPECT_EQ(ctx.trial_plan(4).backend, Backend::kSeq);
  ASSERT_TRUE(values.set("backend", "sharded"));
  EXPECT_EQ(ctx.trial_plan(4).backend, Backend::kSharded);  // legacy fan-out
  ASSERT_TRUE(values.set("threads", "4"));
  EXPECT_EQ(ctx.trial_plan(4).backend, Backend::kSharded);
}

TEST(Registry, ThreadFlagsAreRejectedWithoutARoundKernel) {
  // --threads and --trial-parallelism size a round kernel's thread
  // budget; an experiment that runs none must refuse them rather than
  // silently ignore them.
  std::size_t kernel_less = 0;
  for (const Experiment& e : default_registry().experiments()) {
    if (e.family != ProcessFamily::kNone) continue;
    ++kernel_less;
    for (const auto& [flag, value] :
         {std::pair<const char*, const char*>{"threads", "2"},
          {"trial-parallelism", "2"}}) {
      ParamValues values(e.params);
      ASSERT_TRUE(values.set(flag, value));
      try {
        (void)run_experiment(e, values, BenchScale::kSmoke);
        ADD_FAILURE() << e.name << " accepted --" << flag;
      } catch (const std::invalid_argument& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find(e.name), std::string::npos) << what;
        EXPECT_NE(what.find("--threads or --trial-parallelism"),
                  std::string::npos)
            << what;
      }
    }
  }
  EXPECT_GT(kernel_less, 0u);

  // A kernel experiment still takes both.
  const Experiment* stability = default_registry().find("stability");
  ASSERT_NE(stability, nullptr);
  ParamValues values(stability->params);
  ASSERT_TRUE(values.set("trials", "2"));
  ASSERT_TRUE(values.set("n", "32"));
  ASSERT_TRUE(values.set("window-factor", "2"));
  ASSERT_TRUE(values.set("threads", "2"));
  ASSERT_TRUE(values.set("trial-parallelism", "2"));
  EXPECT_NO_THROW((void)run_experiment(*stability, values, BenchScale::kSmoke));
}

TEST(Registry, SingleInstanceExperimentsRejectTrials) {
  // sharded_scaling and trajectory run one instance; an explicit
  // --trials would be silently ignored, so it must fail the run.
  std::vector<std::string> single;
  for (const Experiment& e : default_registry().experiments()) {
    if (!e.single_instance) continue;
    single.push_back(e.name);
    ParamValues values(e.params);
    ASSERT_TRUE(values.set("trials", "3"));
    try {
      (void)run_experiment(e, values, BenchScale::kSmoke);
      ADD_FAILURE() << e.name << " accepted --trials";
    } catch (const std::invalid_argument& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find(e.name), std::string::npos) << what;
      EXPECT_NE(what.find("--trials"), std::string::npos) << what;
    }
  }
  EXPECT_EQ(single,
            (std::vector<std::string>{"sharded_scaling", "trajectory"}));
}

TEST(Registry, GitRevisionIsAShortHashWithDirtyMarkerOrUnknown) {
  // Stamped at configure time by `git describe --always --dirty`.
  const std::string rev = git_revision();
  EXPECT_TRUE(std::regex_match(rev, std::regex("[0-9a-f]+(-dirty)?|unknown")))
      << rev;
}

TEST(Registry, SeedChangesResults) {
  const Experiment* e = default_registry().find("neg_assoc");
  ASSERT_NE(e, nullptr);
  auto estimate = [&](const char* seed) {
    ParamValues values(e->params);
    EXPECT_TRUE(values.set("trials", "2000"));
    EXPECT_TRUE(values.set("seed", seed));
    const RunContext ctx{values, BenchScale::kSmoke};
    const ResultSet rs = e->run(ctx);
    std::string estimates;  // all three probability estimates
    for (const auto& row : rs.tables().front().data.rows()) {
      estimates += row[2] + ";";
    }
    return estimates;
  };
  const std::string a = estimate("1");
  EXPECT_EQ(a, estimate("1")) << "same seed must reproduce bit-identically";
  EXPECT_NE(a, estimate("2"));
}

}  // namespace
}  // namespace rbb::runner

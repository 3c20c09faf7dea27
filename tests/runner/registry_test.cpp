// Registry completeness: the experiment map of DESIGN.md Sect. 4 and
// the registered catalog can never drift apart.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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
    std::string claim = "E";
    claim += std::to_string(i);
    EXPECT_TRUE(claimed.count(claim) == 1)
        << claim << " from DESIGN.md Sect. 4 has no registered experiment";
  }
}

TEST(Registry, HoldsAllTwentyNineExperiments) {
  EXPECT_EQ(default_registry().experiments().size(), 29u);
}

/// The common flags each kind prepends, in order (ExperimentKind).
const std::vector<std::string>& kind_flags(ExperimentKind kind) {
  static const std::map<ExperimentKind, std::vector<std::string>> flags = {
      {ExperimentKind::kAnalytic, {"metrics", "trace"}},
      {ExperimentKind::kMonteCarlo, {"seed", "trials", "metrics", "trace"}},
      {ExperimentKind::kTrialKernel,
       {"seed", "trials", "backend", "threads", "metrics", "trace", "repeat",
        "trial-parallelism"}},
      {ExperimentKind::kKernelSuite,
       {"seed", "threads", "metrics", "trace", "repeat"}},
      {ExperimentKind::kCheckpointed,
       {"seed", "backend", "threads", "metrics", "trace", "repeat",
        "checkpoint-dir", "checkpoint-every", "checkpoint-keep",
        "resume-from"}},
  };
  return flags.at(kind);
}

/// Every experiment's kind, pinned by name: the eleven drivers that
/// call ctx.trial_plan, the three single-purpose kinds, and Monte-Carlo
/// for the rest.
ExperimentKind expected_kind(const std::string& name) {
  static const std::set<std::string> trial_kernel = {
      "convergence",      "stability",    "empty_bins",
      "tetris_stability", "dchoices",     "leaky_bins",
      "cover_time",       "progress",     "max_load_regimes",
      "mixed_regime",     "threshold_allocation"};
  if (name == "exact_chain") return ExperimentKind::kAnalytic;
  if (name == "sharded_scaling") return ExperimentKind::kKernelSuite;
  if (name == "trajectory") return ExperimentKind::kCheckpointed;
  return trial_kernel.count(name) != 0 ? ExperimentKind::kTrialKernel
                                       : ExperimentKind::kMonteCarlo;
}

TEST(Registry, EachExperimentTakesExactlyTheCommonFlagsOfItsKind) {
  // A common flag an experiment does not read is not among its specs,
  // so the parser rejects it instead of the run ignoring it.
  const std::vector<std::pair<std::string, std::string>> off_default = {
      {"seed", "9"},           {"trials", "5"},
      {"backend", "sharded"},  {"threads", "2"},
      {"metrics", "true"},     {"trace", "t.json"},
      {"repeat", "3"},         {"trial-parallelism", "2"},
      {"checkpoint-dir", "c"}, {"checkpoint-every", "5"},
      {"checkpoint-keep", "5"}, {"resume-from", "c/x.ckpt"}};
  std::map<ExperimentKind, std::size_t> per_kind;
  std::set<std::string> backend_takers;
  for (const Experiment& e : default_registry().experiments()) {
    EXPECT_EQ(e.kind, expected_kind(e.name)) << e.name;
    ++per_kind[e.kind];
    const std::vector<std::string>& listed = kind_flags(e.kind);
    for (const auto& [flag, value] : off_default) {
      const bool takes =
          std::find(listed.begin(), listed.end(), flag) != listed.end();
      ParamValues values(e.params);
      std::string error;
      EXPECT_EQ(values.set(flag, value, &error), takes)
          << e.name << " --" << flag << "=" << value;
      if (!takes) {
        EXPECT_EQ(error, "unknown option --" + flag) << e.name;
      }
      if (takes && flag == "backend") backend_takers.insert(e.name);
    }
  }
  EXPECT_EQ(per_kind[ExperimentKind::kAnalytic], 1u);
  EXPECT_EQ(per_kind[ExperimentKind::kMonteCarlo], 15u);
  EXPECT_EQ(per_kind[ExperimentKind::kTrialKernel], 11u);
  EXPECT_EQ(per_kind[ExperimentKind::kKernelSuite], 1u);
  EXPECT_EQ(per_kind[ExperimentKind::kCheckpointed], 1u);
  // --backend: the eleven trial-kernel drivers plus trajectory;
  // sharded_scaling times every backend and takes none.
  EXPECT_EQ(backend_takers,
            (std::set<std::string>{"convergence", "stability", "empty_bins",
                                   "tetris_stability", "dchoices",
                                   "leaky_bins", "cover_time", "progress",
                                   "max_load_regimes", "mixed_regime",
                                   "threshold_allocation", "trajectory"}));

  // A trial-kernel experiment runs with both thread flags set.
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

TEST(Registry, NamesAreUniqueAndDeclarationsComplete) {
  std::set<std::string> names;
  for (const Experiment& e : default_registry().experiments()) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate name " << e.name;
    EXPECT_FALSE(e.title.empty()) << e.name << " has no title";
    EXPECT_FALSE(e.description.empty()) << e.name << " has no description";
    EXPECT_TRUE(static_cast<bool>(e.run)) << e.name << " has no run fn";
    // The registry prepends the common specs of the kind, in order.
    const std::vector<std::string>& common = kind_flags(e.kind);
    ASSERT_GE(e.params.size(), common.size()) << e.name;
    for (std::size_t i = 0; i < common.size(); ++i) {
      EXPECT_EQ(e.params[i].name, common[i]) << e.name;
    }
    for (const ParamSpec& spec : e.params) {
      if (spec.name == "backend") {
        EXPECT_EQ(spec.default_value, "seq");
      } else if (spec.name == "repeat") {
        EXPECT_EQ(spec.default_value, "1");
      } else if (spec.name == "trial-parallelism") {
        EXPECT_EQ(spec.default_value, "auto");
      } else if (spec.name == "metrics") {
        EXPECT_EQ(spec.type, ParamSpec::Type::kFlag);
      }
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

  // A name declared twice -- against a prepended common spec of the
  // kind or within the experiment's own list -- would leave one spec
  // unsettable, and so would a name the CLI frontends intercept.
  for (const char* taken :
       {"seed", "trials", "backend", "threads", "metrics", "trace", "repeat",
        "trial-parallelism", "scale", "format", "out", "check", "help"}) {
    Experiment clash;
    clash.name = std::string("clash_") + taken;
    clash.kind = ExperimentKind::kTrialKernel;
    clash.params = {{taken, ParamSpec::Type::kString, "", "clash"}};
    clash.run = [](const RunContext&) { return ResultSet{}; };
    EXPECT_THROW(registry.add(clash), std::invalid_argument) << taken;
  }
  for (const char* taken : {"checkpoint-dir", "checkpoint-every",
                            "checkpoint-keep", "resume-from"}) {
    Experiment clash;
    clash.name = std::string("clash_") + taken;
    clash.kind = ExperimentKind::kCheckpointed;
    clash.params = {{taken, ParamSpec::Type::kString, "", "clash"}};
    clash.run = [](const RunContext&) { return ResultSet{}; };
    EXPECT_THROW(registry.add(clash), std::invalid_argument) << taken;
  }
  Experiment twice;
  twice.name = "twice";
  twice.params = {{"n", ParamSpec::Type::kU64, "1", "bins"},
                  {"n", ParamSpec::Type::kU64, "2", "bins again"}};
  twice.run = [](const RunContext&) { return ResultSet{}; };
  EXPECT_THROW(registry.add(twice), std::invalid_argument);
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
  EXPECT_THROW((void)ctx.trial_plan(4), std::invalid_argument);
  ASSERT_TRUE(values.set("trial-parallelism", "0"));
  EXPECT_THROW((void)ctx.trial_plan(4), std::invalid_argument);
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

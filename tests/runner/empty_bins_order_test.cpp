// E3b (the single-round Lemma-1 table of empty_bins) folds its trials
// in trial order, so the table cannot depend on how many trial workers
// ran them or which finished first.
#include <gtest/gtest.h>

#include <string>

#include "runner/registry.hpp"

namespace rbb::runner {
namespace {

std::string lemma1_table(const char* threads, const char* trial_parallelism) {
  const Experiment* e = default_registry().find("empty_bins");
  EXPECT_NE(e, nullptr);
  ParamValues values(e->params);
  EXPECT_TRUE(values.set("seed", "11"));
  EXPECT_TRUE(values.set("trials", "1"));
  EXPECT_TRUE(values.set("threads", threads));
  EXPECT_TRUE(values.set("trial-parallelism", trial_parallelism));
  const CompletedRun run = run_experiment(*e, values, BenchScale::kSmoke);
  for (const ResultSet::Entry& table : run.results.tables()) {
    if (table.id == "E3b_lemma1_one_step") return table.data.csv();
  }
  ADD_FAILURE() << "no E3b_lemma1_one_step table";
  return {};
}

TEST(EmptyBinsLemma1, TableIdenticalForOneAndFourTrialWorkers) {
  const std::string one = lemma1_table("1", "auto");
  EXPECT_EQ(lemma1_table("4", "4"), one);
  EXPECT_EQ(lemma1_table("4", "auto"), one);
}

}  // namespace
}  // namespace rbb::runner

// Golden-file tests for the runner's machine-readable renderings.
//
// The JSON and CSV outputs are a public interface: sweep tooling and the
// BENCH_*.json trajectory records parse them, so key order, metadata
// fields, and the number-vs-string cell rule are pinned byte-exactly
// here.  Any intentional schema change must update these goldens (and
// bump the schema tag).
#include <gtest/gtest.h>

#include "runner/result.hpp"

namespace rbb::runner {
namespace {

RunMeta golden_meta() {
  RunMeta meta;
  meta.experiment = "stability";
  meta.claim = "E1";
  meta.title = "window max load stays O(log n)";
  meta.scale = "smoke";
  meta.seed = 7;
  meta.params = {
      {"seed", ParamSpec::Type::kU64, "7"},
      {"trials", ParamSpec::Type::kU64, "2"},
      {"beta", ParamSpec::Type::kF64, "4.0"},
      {"label", ParamSpec::Type::kString, "a \"quoted\" name"},
      {"verbose", ParamSpec::Type::kFlag, "true"},
  };
  meta.git_rev = "deadbeef";
  meta.wall_seconds = 0.125;
  meta.parallelism = {.hardware_concurrency = 8,
                      .threads_requested = 2,
                      .repeat = 3};
  return meta;
}

ResultSet golden_results() {
  ResultSet rs;
  Table& t = rs.add_table("E1_stability", "a titled, table",
                          {"n", "max load", "label"});
  t.row().cell(std::uint64_t{128}).cell(0.5, 3).cell(
      std::string("plain"));
  t.row().cell(std::uint64_t{256}).cell(1.0 / 0.0, 2).cell(
      std::string("comma, \"quote\""));
  rs.note("fitted exponent 1.0 (R^2 = 0.99)");
  return rs;
}

TEST(SerializationGolden, Json) {
  const char* expected = R"json({
  "schema": "rbb.result.v1",
  "experiment": "stability",
  "claim": "E1",
  "title": "window max load stays O(log n)",
  "scale": "smoke",
  "seed": 7,
  "git_rev": "deadbeef",
  "wall_time_s": 0.125,
  "parallelism": {
    "hardware_concurrency": 8,
    "threads_requested": 2,
    "repeat": 3
  },
  "params": {
    "seed": 7,
    "trials": 2,
    "beta": 4.0,
    "label": "a \"quoted\" name",
    "verbose": true
  },
  "notes": [
    "fitted exponent 1.0 (R^2 = 0.99)"
  ],
  "tables": [
    {
      "id": "E1_stability",
      "title": "a titled, table",
      "columns": ["n", "max load", "label"],
      "rows": [
        [128, 0.500, "plain"],
        [256, "inf", "comma, \"quote\""]
      ]
    }
  ]
}
)json";
  EXPECT_EQ(to_json(golden_meta(), golden_results()), expected);
}

TEST(SerializationGolden, Csv) {
  const char* expected =
      "# rbb.result.v1\n"
      "# experiment=stability\n"
      "# claim=E1\n"
      "# title=window max load stays O(log n)\n"
      "# scale=smoke\n"
      "# seed=7\n"
      "# git_rev=deadbeef\n"
      "# wall_time_s=0.125\n"
      "# parallelism hardware_concurrency=8 threads_requested=2 "
      "repeat=3\n"
      "# param seed=7\n"
      "# param trials=2\n"
      "# param beta=4.0\n"
      "# param label=a \"quoted\" name\n"
      "# param verbose=true\n"
      "\n"
      "# table E1_stability: a titled, table\n"
      "n,max load,label\n"
      "128,0.500,plain\n"
      "256,inf,\"comma, \"\"quote\"\"\"\n"
      "\n"
      "# note: fitted exponent 1.0 (R^2 = 0.99)\n";
  EXPECT_EQ(to_csv(golden_meta(), golden_results()), expected);
}

TEST(SerializationGolden, TextMatchesLegacyBenchFormat) {
  const std::string text = to_text(golden_meta(), golden_results());
  EXPECT_NE(text.find("=== E1_stability: a titled, table (scale: smoke) ==="),
            std::string::npos);
  EXPECT_NE(text.find("### E1_stability"), std::string::npos);
  EXPECT_NE(text.find("| n   | max load | label"), std::string::npos);
  EXPECT_NE(text.find("fitted exponent 1.0"), std::string::npos);
}

TEST(SerializationGolden, EmptyResultSetStillWellFormed) {
  RunMeta meta = golden_meta();
  meta.params.clear();
  const ResultSet rs;
  const std::string json = to_json(meta, rs);
  EXPECT_NE(json.find("\"params\": {},"), std::string::npos);
  EXPECT_NE(json.find("\"notes\": [],"), std::string::npos);
  EXPECT_NE(json.find("\"tables\": []"), std::string::npos);
}

TEST(SerializationGolden, MetricsBlockIsAdditive) {
  RunMeta meta = golden_meta();
  const ResultSet rs = golden_results();
  const std::string without = to_json(meta, rs);
  EXPECT_EQ(without.find("\"metrics\""), std::string::npos);

  meta.metrics.present = true;
  meta.metrics.counters = {{"lemire_retries", 0}, {"pool_tasks", 42}};
  meta.metrics.phase_ns = {{"throw", 1200}, {"barrier_wait", 30}};
  meta.metrics.barrier_wait_fraction = 0.25;
  meta.metrics.pipeline_fill_fraction = 0.75;
  meta.metrics.effective_parallelism = 1.5;
  const std::string with = to_json(meta, rs);
  const char* expected_block =
      "  \"metrics\": {\n"
      "    \"counters\": {\n"
      "      \"lemire_retries\": 0,\n"
      "      \"pool_tasks\": 42\n"
      "    },\n"
      "    \"phase_ns\": {\n"
      "      \"throw\": 1200,\n"
      "      \"barrier_wait\": 30\n"
      "    },\n"
      "    \"barrier_wait_fraction\": 0.250000,\n"
      "    \"pipeline_fill_fraction\": 0.750000,\n"
      "    \"effective_parallelism\": 1.50\n"
      "  },\n";
  EXPECT_NE(with.find(expected_block), std::string::npos);
  // Additive: removing the block byte-reverts the document.
  std::string stripped = with;
  const std::size_t at = stripped.find(expected_block);
  ASSERT_NE(at, std::string::npos);
  stripped.erase(at, std::string(expected_block).size());
  EXPECT_EQ(stripped, without);
}

TEST(SerializationGolden, InformationalColumnsSerializedWhenDeclared) {
  ResultSet rs;
  Table& t = rs.add_table("memtab", "with context columns",
                          {"n", "ns_per_ball", "peak_rss_mb"},
                          {"peak_rss_mb"});
  t.row().cell(std::uint64_t{1}).cell(2.0, 2).cell(3.0, 1);
  const std::string json = to_json(golden_meta(), rs);
  EXPECT_NE(json.find("      \"columns\": [\"n\", \"ns_per_ball\", "
                      "\"peak_rss_mb\"],\n"
                      "      \"informational\": [\"peak_rss_mb\"],\n"),
            std::string::npos);
  // The 3-arg overload declares nothing: no empty-array noise.
  ResultSet plain;
  plain.add_table("t", "no informational", {"a"});
  EXPECT_EQ(to_json(golden_meta(), plain).find("\"informational\""),
            std::string::npos);
}

TEST(JsonNumberRule, AcceptsAndRejects) {
  EXPECT_TRUE(is_json_number("0"));
  EXPECT_TRUE(is_json_number("128"));
  EXPECT_TRUE(is_json_number("-3"));
  EXPECT_TRUE(is_json_number("0.500"));
  EXPECT_TRUE(is_json_number("1e9"));
  EXPECT_TRUE(is_json_number("1.5E-3"));
  EXPECT_FALSE(is_json_number(""));
  EXPECT_FALSE(is_json_number("007"));     // leading zeros
  EXPECT_FALSE(is_json_number("1."));      // bare trailing dot
  EXPECT_FALSE(is_json_number(".5"));      // bare leading dot
  EXPECT_FALSE(is_json_number("inf"));
  EXPECT_FALSE(is_json_number("nan"));
  EXPECT_FALSE(is_json_number("1.2.3"));
  EXPECT_FALSE(is_json_number("+1"));
  EXPECT_FALSE(is_json_number("12ab"));
}

TEST(JsonEscape, ControlAndSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(ResultSet, TableReferencesStayValidAcrossAdds) {
  ResultSet rs;
  Table& first = rs.add_table("t1", "first", {"a"});
  rs.add_table("t2", "second", {"b"});
  first.row().cell(std::uint64_t{1});  // must not be a dangling reference
  EXPECT_EQ(rs.tables().front().data.row_count(), 1u);
  EXPECT_EQ(rs.tables().back().data.row_count(), 0u);
}

}  // namespace
}  // namespace rbb::runner

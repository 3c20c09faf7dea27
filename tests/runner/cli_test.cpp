// CLI surface tests: subcommand dispatch, option parsing and rejection,
// and well-formedness of the machine-readable outputs (validated with a
// minimal recursive-descent JSON parser -- no third-party dependency).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runner/docgen.hpp"
#include "runner/registry.hpp"
#include "runner/runner.hpp"

namespace rbb::runner {
namespace {

// --- a minimal JSON syntax checker -----------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- harness ----------------------------------------------------------------

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult rbb(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = runner_main(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

// --- dispatch ---------------------------------------------------------------

TEST(RbbCli, NoArgsPrintsUsageAndFails) {
  const CliResult r = rbb({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(RbbCli, HelpSucceeds) {
  const CliResult r = rbb({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("rbb run <experiment>"), std::string::npos);
}

TEST(RbbCli, UnknownCommandRejected) {
  const CliResult r = rbb({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(RbbCli, ListShowsAllExperiments) {
  const CliResult r = rbb({"list"});
  EXPECT_EQ(r.code, 0);
  for (const Experiment& e : default_registry().experiments()) {
    EXPECT_NE(r.out.find(e.name), std::string::npos)
        << e.name << " missing from `rbb list`";
  }
}

TEST(RbbCli, DescribeShowsParams) {
  const CliResult r = rbb({"describe", "stability"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("--window-factor"), std::string::npos);
  EXPECT_NE(r.out.find("[E1]"), std::string::npos);
}

TEST(RbbCli, DescribeShowsBackendAndThreadsWithDefaults) {
  // The kernel-selection knobs are part of the described surface of the
  // experiments that read them, defaults included.
  for (const char* name : {"stability", "convergence"}) {
    const CliResult r = rbb({"describe", name});
    ASSERT_EQ(r.code, 0) << name;
    EXPECT_NE(r.out.find("--backend"), std::string::npos) << name;
    EXPECT_NE(r.out.find("--threads"), std::string::npos) << name;
    EXPECT_NE(r.out.find("seq"), std::string::npos) << name;
  }
  // sharded_scaling times every backend: its parameter table lists
  // --threads only.
  const CliResult r = rbb({"describe", "sharded_scaling"});
  ASSERT_EQ(r.code, 0);
  EXPECT_EQ(r.out.find("| --backend "), std::string::npos);
  EXPECT_NE(r.out.find("| --threads "), std::string::npos);
}

TEST(RbbCli, DescribeUnknownExperimentRejected) {
  const CliResult r = rbb({"describe", "nope"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown experiment"), std::string::npos);
}

// --- run: parse/reject ------------------------------------------------------

TEST(RbbCli, RunRequiresExperiment) {
  EXPECT_EQ(rbb({"run"}).code, 2);
  EXPECT_EQ(rbb({"run", "--scale=smoke"}).code, 2);
}

TEST(RbbCli, RunRejectsUnknownExperiment) {
  const CliResult r = rbb({"run", "nope"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown experiment"), std::string::npos);
}

TEST(RbbCli, RunRejectsUnknownParam) {
  const CliResult r =
      rbb({"run", "stability", "--scale=smoke", "--bogus=1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option --bogus"), std::string::npos);
}

TEST(RbbCli, RunRejectsTypeMismatch) {
  const CliResult r =
      rbb({"run", "stability", "--scale=smoke", "--trials=lots"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("expects a u64"), std::string::npos);
}

TEST(RbbCli, RunRejectsBadScaleAndFormat) {
  EXPECT_EQ(rbb({"run", "stability", "--scale=huge"}).code, 2);
  EXPECT_EQ(rbb({"run", "stability", "--format=xml"}).code, 2);
}

TEST(RbbCli, RunAcceptsMegaScale) {
  // mega must parse and land in the run metadata; neg_assoc with an
  // explicit trial override keeps the run instant.
  const CliResult r = rbb({"run", "neg_assoc", "--scale=mega",
                           "--trials=100", "--format=json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"scale\": \"mega\""), std::string::npos);
}

// --- the sharded backend surface --------------------------------------------

TEST(RbbCli, RunRejectsShardedBackendWithoutCapableFamily) {
  // jackson runs a continuous-time event loop, no round kernel: it
  // declares no --backend, so the parser rejects the flag by name.
  const CliResult r = rbb({"run", "jackson", "--scale=smoke", "--trials=1",
                           "--backend=sharded"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option --backend"), std::string::npos);
}

TEST(RbbCli, RunRejectsCommonFlagsTheExperimentDoesNotRead) {
  // Each experiment here would ignore the flag, so it must not take it.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"exact_chain", "--trials=5"},
      {"exact_chain", "--seed=9"},
      {"trajectory", "--trial-parallelism=3"},
      {"sharded_scaling", "--trial-parallelism=2"},
      {"sharded_scaling", "--backend=sharded"},
      {"zchain", "--checkpoint-keep=5"},
  };
  for (const auto& [experiment, flag] : cases) {
    const CliResult r = rbb({"run", experiment, "--scale=smoke", flag});
    EXPECT_EQ(r.code, 2) << experiment << " " << flag;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(r.err.find("unknown option " + name), std::string::npos)
        << experiment << " " << flag << ": " << r.err;
  }
}

TEST(RbbCli, CheckpointKeepRequiresCheckpointDir) {
  // Retention without a checkpoint directory has nothing to retain.
  const CliResult r = rbb({"run", "trajectory", "--n=64", "--rounds=4",
                           "--checkpoint-keep=5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--checkpoint-keep requires --checkpoint-dir"),
            std::string::npos)
      << r.err;
  const CliResult every = rbb({"run", "trajectory", "--n=64", "--rounds=4",
                               "--checkpoint-every=5"});
  EXPECT_EQ(every.code, 1);
  EXPECT_NE(every.err.find("--checkpoint-every requires --checkpoint-dir"),
            std::string::npos)
      << every.err;
  // The default value is no request.
  EXPECT_EQ(rbb({"run", "trajectory", "--n=64", "--rounds=4",
                 "--checkpoint-keep=3"})
                .code,
            0);
}

TEST(RbbCli, RunAcceptsShardedBackendOnEveryKernelFamily) {
  // One newly capable experiment per variant family runs end-to-end
  // under --backend=sharded at smoke scale with valid JSON out.
  const std::vector<std::vector<std::string>> runs = {
      {"run", "stability", "--scale=smoke", "--trials=1", "--n=32",
       "--window-factor=2", "--backend=sharded", "--format=json"},
      {"run", "tetris_stability", "--scale=smoke", "--trials=1",
       "--backend=sharded", "--format=json"},
      {"run", "dchoices", "--scale=smoke", "--trials=1",
       "--backend=sharded", "--format=json"},
      {"run", "leaky_bins", "--scale=smoke", "--trials=1", "--n=64",
       "--backend=sharded", "--format=json"},
      {"run", "progress", "--scale=smoke", "--trials=1",
       "--backend=sharded", "--format=json"},
  };
  for (const auto& args : runs) {
    const CliResult r = rbb(args);
    ASSERT_EQ(r.code, 0) << args[1] << ": " << r.err;
    EXPECT_TRUE(JsonChecker(r.out).valid()) << args[1];
    EXPECT_NE(r.out.find("\"backend\": \"sharded\""), std::string::npos)
        << args[1];
  }
}

TEST(RbbCli, RunRejectsUnknownBackendValue) {
  const CliResult r = rbb({"run", "convergence", "--scale=smoke",
                           "--trials=1", "--backend=gpu"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("expects seq or sharded"), std::string::npos);
}

TEST(RbbCli, RunAcceptsShardedBackendOnCapableExperiment) {
  const CliResult r = rbb({"run", "convergence", "--scale=smoke",
                           "--trials=1", "--backend=sharded", "--threads=2",
                           "--format=json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(JsonChecker(r.out).valid());
  EXPECT_NE(r.out.find("\"backend\": \"sharded\""), std::string::npos);
}

TEST(RbbCli, ShardedRunsAreSeedReproducible) {
  auto run_json = [&] {
    return rbb({"run", "convergence", "--scale=smoke", "--trials=2",
                "--backend=sharded", "--format=csv"});
  };
  const CliResult a = run_json();
  const CliResult b = run_json();
  ASSERT_EQ(a.code, 0) << a.err;
  // CSV carries wall time in the metadata header; compare table bodies.
  const auto body = [](const std::string& text) {
    return text.substr(text.find("\n\n"));
  };
  EXPECT_EQ(body(a.out), body(b.out));
}

TEST(RbbCli, RunReportsOversizedU32CleanlyInsteadOfTruncating) {
  // 2^32 passes u64 validation but exceeds what the drivers accept;
  // must fail with a message and exit 1, not truncate to trials=0 or
  // terminate on an uncaught exception.
  const CliResult r =
      rbb({"run", "stability", "--scale=smoke", "--trials=4294967296"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("exceeds the 32-bit range"), std::string::npos);
}

TEST(RbbCli, RunRejectsOversizedU32ExperimentParams) {
  // Each value passes u64 validation; truncated to 32 bits it would
  // silently run another instance (--n=4294967300 as 4 bins holding
  // 4294967300 balls), so every one must exit 1 naming the range.
  const std::vector<std::vector<std::string>> cases = {
      {"run", "trajectory", "--n=4294967300", "--rounds=4"},
      {"run", "trajectory", "--n=64", "--rounds=4", "--backend=sharded",
       "--shard-size=4294967296"},
      {"run", "trajectory", "--family=dchoices", "--n=64", "--rounds=4",
       "--d=4294967298"},
      {"run", "sharded_scaling", "--n=4294967300"},
      {"run", "threshold_allocation", "--scale=smoke",
       "--threshold=4294967296"},
  };
  for (const std::vector<std::string>& args : cases) {
    const CliResult r = rbb(args);
    EXPECT_EQ(r.code, 1) << args[1] << " " << args[2];
    EXPECT_NE(r.err.find("exceeds the 32-bit range"), std::string::npos)
        << args[1] << " " << args[2] << ": " << r.err;
  }
}

TEST(RbbCli, RunRejectsNonFiniteF64Flags) {
  // strtod accepts nan and inf; a NaN or negative ball ratio once sent
  // make_config looping over ~2^64 balls, and an infinite mixed ratio
  // did the same.  Every f64 flag now fails at parse time, exit 2.
  const std::vector<std::vector<std::string>> cases = {
      {"run", "stability", "--n=64", "--ball-ratio=nan"},
      {"run", "convergence", "--ball-ratio=inf"},
      {"run", "convergence", "--beta=-Infinity"},
      {"run", "empty_bins", "--ball-ratio=NAN"},
      {"run", "mixed_regime", "--ball-ratio=INF"},
      {"run", "trajectory", "--family=mixed", "--ratio=inf"},
      {"run", "trajectory", "--family=leaky", "--lambda=nan"},
  };
  for (const std::vector<std::string>& args : cases) {
    const CliResult r = rbb(args);
    EXPECT_EQ(r.code, 2) << args[1] << " " << args.back();
    EXPECT_NE(r.err.find("expects a f64 value"), std::string::npos)
        << args[1] << " " << args.back() << ": " << r.err;
  }
}

TEST(RbbCli, RunRejectsOutOfRangeBallRatiosByName) {
  // A negative ratio, or an m = round(c * n) past 32 bits, exits 1
  // naming the flag before any trial runs.
  const std::vector<std::vector<std::string>> cases = {
      {"run", "stability", "--scale=smoke", "--n=64", "--trials=1",
       "--ball-ratio=-1"},
      {"run", "stability", "--scale=smoke", "--n=64", "--trials=1",
       "--ball-ratio=1e300"},
      {"run", "convergence", "--scale=smoke", "--trials=1",
       "--ball-ratio=-0.5"},
      {"run", "empty_bins", "--scale=smoke", "--trials=1",
       "--ball-ratio=1e12"},
  };
  for (const std::vector<std::string>& args : cases) {
    const CliResult r = rbb(args);
    EXPECT_EQ(r.code, 1) << args[1] << " " << args.back();
    EXPECT_NE(r.err.find("--ball-ratio="), std::string::npos)
        << args[1] << " " << args.back() << ": " << r.err;
  }
  const std::vector<std::vector<std::string>> mixed = {
      {"run", "trajectory", "--family=mixed", "--n=64", "--rounds=4",
       "--ratio=1e300"},
      {"run", "mixed_regime", "--scale=smoke", "--trials=1",
       "--ball-ratio=1e12"},
  };
  for (const std::vector<std::string>& args : mixed) {
    const CliResult r = rbb(args);
    EXPECT_EQ(r.code, 1) << args[1] << " " << args.back();
    EXPECT_NE(r.err.find("above the 32-bit range"), std::string::npos)
        << args[1] << " " << args.back() << ": " << r.err;
  }
}

TEST(RbbCli, ConvergenceRejectsNonPositiveBeta) {
  // At beta <= 0 no configuration is legitimate: every trial ran to its
  // 64n cap before the power-law fit failed.
  for (const char* beta : {"--beta=-1", "--beta=0"}) {
    const CliResult r =
        rbb({"run", "convergence", "--scale=smoke", "--trials=2", beta});
    EXPECT_EQ(r.code, 1) << beta;
    EXPECT_NE(r.err.find("--beta="), std::string::npos) << r.err;
  }
}

TEST(RbbCli, ConvergenceSkipsTheFitWithoutTwoPositiveSizes) {
  // Both runs used to fail with a bare fit error.  At beta = 0.1,
  // beta*log2(n) < 1 at every smoke size: every trial hits its 64n cap,
  // and the timed-out sizes are named.  At ball-ratio 0.01 the all-in-one
  // start is legitimate from round 0, so every size reads 0 rounds.
  for (const char* knob : {"--beta=0.1", "--ball-ratio=0.01"}) {
    const CliResult r =
        rbb({"run", "convergence", "--scale=smoke", "--trials=2", knob});
    EXPECT_EQ(r.code, 0) << knob << ": " << r.err;
    EXPECT_NE(r.out.find("growth-law fit skipped"), std::string::npos)
        << knob << ": " << r.out;
    EXPECT_EQ(r.out.find("fitted growth law"), std::string::npos) << knob;
    EXPECT_EQ(r.out.find("every all-in-one trial timed out") !=
                  std::string::npos,
              std::string(knob) == "--beta=0.1")
        << knob << ": " << r.out;
  }
}

TEST(RbbCli, ConvergenceRowsWithoutAConvergedTrialPrintDashes) {
  // At beta = 0.1 every trial times out.  Such a row used to read a 0.0
  // mean, a -inf max and a 0.000 normalized mean ("-inf" in JSON).
  const CliResult r = rbb({"run", "convergence", "--scale=smoke",
                           "--trials=2", "--beta=0.1", "--format=json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(JsonChecker(r.out).valid());
  EXPECT_EQ(r.out.find("inf"), std::string::npos) << r.out;
  std::istringstream lines(r.out);
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("        [", 0) != 0) continue;  // a table row
    ++rows;
    // trials, the three time cells, timeouts = trials.
    EXPECT_NE(line.find(", 2, \"-\", \"-\", \"-\", 2]"), std::string::npos)
        << line;
  }
  EXPECT_EQ(rows, 6);  // 2 smoke sizes x 3 starts
}

TEST(RbbCli, RunRejectsRepeatWithoutRoundKernel) {
  // zchain runs no round kernel: it declares neither --repeat nor
  // --threads, instead of re-running an untimed computation K times.
  for (const char* flag : {"--repeat=3", "--repeat=1", "--threads=2"}) {
    const CliResult r = rbb({"run", "zchain", "--scale=smoke", flag});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find("unknown option"), std::string::npos) << flag;
  }
  EXPECT_EQ(rbb({"run", "zchain", "--scale=smoke"}).code, 0);
}

TEST(RbbCli, TrajectoryRejectsKnobsOfAnotherFamily) {
  // A knob of another family would be ignored by the run and left out
  // of the checkpoint digest; it fails loudly instead.
  const CliResult policy =
      rbb({"run", "trajectory", "--family=mixed", "--policy=random",
           "--n=64", "--rounds=2"});
  EXPECT_EQ(policy.code, 1);
  EXPECT_NE(policy.err.find("--policy applies to --family=token"),
            std::string::npos)
      << policy.err;
  const CliResult d = rbb({"run", "trajectory", "--family=load", "--d=7",
                           "--ratio=3", "--n=64", "--rounds=2"});
  EXPECT_EQ(d.code, 1);
  EXPECT_NE(d.err.find("--d applies to --family=dchoices"),
            std::string::npos)
      << d.err;
  // The owning family takes the knob; a default-valued foreign knob
  // (what `rbb resume` replays) passes.
  EXPECT_EQ(rbb({"run", "trajectory", "--family=token", "--policy=random",
                 "--n=64", "--rounds=2"})
                .code,
            0);
  EXPECT_EQ(rbb({"run", "trajectory", "--family=load", "--d=2",
                 "--ratio=2.0", "--policy=fifo", "--n=64", "--rounds=2"})
                .code,
            0);
}

TEST(RbbCli, RunReportsDriverRejectionsCleanly) {
  // n = 1 is rejected inside run_stability ("n < 2"); the CLI must turn
  // that into exit 1 + message, not std::terminate.
  const CliResult r =
      rbb({"run", "stability", "--scale=smoke", "--trials=1", "--n=1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("stability failed"), std::string::npos);
  EXPECT_NE(r.err.find("n < 2"), std::string::npos);
}

TEST(RbbCli, RunAcceptsSpaceSeparatedOptionValues) {
  const CliResult r = rbb({"run", "stability", "--scale", "smoke",
                           "--trials", "1", "--n", "32",
                           "--window-factor", "2", "--format", "json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(JsonChecker(r.out).valid());
}

TEST(RbbCli, RunJsonIsValidAndSchemaTagged) {
  const CliResult r = rbb({"run", "stability", "--scale=smoke",
                           "--trials=1", "--n=32", "--window-factor=2",
                           "--format=json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(JsonChecker(r.out).valid());
  EXPECT_NE(r.out.find("\"schema\": \"rbb.result.v1\""), std::string::npos);
  EXPECT_NE(r.out.find("\"claim\": \"E1\""), std::string::npos);
  EXPECT_NE(r.out.find("\"scale\": \"smoke\""), std::string::npos);
}

TEST(RbbCli, RunCsvCarriesMetadata) {
  const CliResult r = rbb({"run", "stability", "--scale=smoke",
                           "--trials=1", "--n=32", "--window-factor=2",
                           "--format=csv"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("# rbb.result.v1"), std::string::npos);
  EXPECT_NE(r.out.find("# param n=32"), std::string::npos);
  EXPECT_NE(r.out.find("# table E1_stability"), std::string::npos);
}

TEST(RbbCli, RunWritesToOutFile) {
  const std::string path = ::testing::TempDir() + "rbb_out_test.json";
  const CliResult r = rbb({"run", "stability", "--scale=smoke",
                           "--trials=1", "--n=32", "--window-factor=2",
                           "--format=json", "--out=" + path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(r.out.empty());
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream contents;
  contents << file.rdbuf();
  EXPECT_TRUE(JsonChecker(contents.str()).valid());
  std::remove(path.c_str());
}

// --- sweep ------------------------------------------------------------------

TEST(RbbCli, SweepGridIsCartesianAndValidJson) {
  const CliResult r = rbb({"sweep", "stability", "--scale=smoke",
                           "--trials=1", "--window-factor=2",
                           "--n=16,32", "--seed=1,2", "--format=json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(JsonChecker(r.out).valid());
  EXPECT_NE(r.out.find("\"schema\": \"rbb.sweep.v1\""), std::string::npos);
  // 2 x 2 grid -> four embedded result documents.
  std::size_t count = 0;
  for (std::size_t at = r.out.find("rbb.result.v1");
       at != std::string::npos; at = r.out.find("rbb.result.v1", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 4u);
}

TEST(RbbCli, SweepRejectsBadGridValue) {
  const CliResult r =
      rbb({"sweep", "stability", "--scale=smoke", "--n=16,banana"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("expects a u64"), std::string::npos);
}

TEST(RbbCli, SweepRejectsDuplicateParam) {
  // A later --n would silently shadow the axis; must be an error.
  const CliResult r = rbb(
      {"sweep", "stability", "--scale=smoke", "--n=16,32", "--n=64"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("given more than once"), std::string::npos);
}

TEST(RbbCli, SweepForwardsBackendAndThreadsLikeRun) {
  // The prepended kernel knobs ride through `sweep` exactly as through
  // `run`: a fixed --backend=sharded --threads=1 override applies to
  // every grid point and lands in each embedded result document.
  const CliResult r =
      rbb({"sweep", "convergence", "--scale=smoke", "--trials=1",
           "--backend=sharded", "--threads=1", "--seed=1,2",
           "--format=json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(JsonChecker(r.out).valid());
  std::size_t count = 0;
  for (std::size_t at = r.out.find("\"backend\": \"sharded\"");
       at != std::string::npos;
       at = r.out.find("\"backend\": \"sharded\"", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);  // one per sweep point
}

TEST(RbbCli, SweepAcceptsBackendAsAGridAxis) {
  // backend=seq,sharded is a legitimate axis on a capable experiment:
  // the same measurement on both kernels, two embedded documents.
  const CliResult r =
      rbb({"sweep", "empty_bins", "--scale=smoke", "--trials=1",
           "--backend=seq,sharded", "--format=json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(JsonChecker(r.out).valid());
  EXPECT_NE(r.out.find("\"backend\": \"seq\""), std::string::npos);
  EXPECT_NE(r.out.find("\"backend\": \"sharded\""), std::string::npos);
}

TEST(RbbCli, SweepRejectsShardedBackendWithoutCapableFamily) {
  // The same parse error as `rbb run`, before any sweep point runs.
  const CliResult r = rbb({"sweep", "jackson", "--scale=smoke",
                           "--trials=1", "--seed=1,2",
                           "--backend=sharded"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option --backend"), std::string::npos);
}

// --- docs -------------------------------------------------------------------

TEST(RbbCli, DocsStdoutMatchesRenderer) {
  const CliResult r = rbb({"docs"});
  ASSERT_EQ(r.code, 0);
  EXPECT_EQ(r.out, render_experiment_docs(default_registry()));
}

TEST(RbbCli, DocsCheckPassesOnFreshFileAndFailsOnDrift) {
  const std::string path = ::testing::TempDir() + "rbb_docs_test.md";
  ASSERT_EQ(rbb({"docs", "--out=" + path}).code, 0);
  EXPECT_EQ(rbb({"docs", "--check", "--out=" + path}).code, 0);
  std::ofstream(path, std::ios::app) << "manual edit\n";
  const CliResult drift = rbb({"docs", "--check", "--out=" + path});
  EXPECT_EQ(drift.code, 1);
  EXPECT_NE(drift.err.find("docs drift"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RbbCli, DocsCheckFailsWithoutFile) {
  const CliResult r =
      rbb({"docs", "--check", "--out=/nonexistent/rbb_docs.md"});
  EXPECT_EQ(r.code, 1);
}

TEST(RbbCli, DocsCheckTakesNoValue) {
  const CliResult r = rbb({"docs", "--check=false"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--check takes no value"), std::string::npos);
}

TEST(RbbCli, DocsCatalogIsDeterministicAndComplete) {
  const std::string a = render_experiment_docs(default_registry());
  const std::string b = render_experiment_docs(default_registry());
  EXPECT_EQ(a, b);
  for (const Experiment& e : default_registry().experiments()) {
    EXPECT_NE(a.find("## " + e.name), std::string::npos)
        << e.name << " missing from the generated catalog";
  }
}

}  // namespace
}  // namespace rbb::runner

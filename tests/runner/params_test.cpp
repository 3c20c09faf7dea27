// Typed parameter parsing: the validation layer between user text and
// every experiment's run function.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/params.hpp"

namespace rbb::runner {
namespace {

std::vector<ParamSpec> specs() {
  return {
      {"count", ParamSpec::Type::kU64, "42", "a counter"},
      {"rate", ParamSpec::Type::kF64, "0.5", "a rate"},
      {"name", ParamSpec::Type::kString, "dflt", "a label"},
      {"fast", ParamSpec::Type::kFlag, "false", "a switch"},
  };
}

TEST(ParamValues, StartsAtDefaults) {
  const auto s = specs();
  const ParamValues values(s);
  EXPECT_EQ(values.u64("count"), 42u);
  EXPECT_DOUBLE_EQ(values.f64("rate"), 0.5);
  EXPECT_EQ(values.str("name"), "dflt");
  EXPECT_FALSE(values.flag("fast"));
}

TEST(ParamValues, SetParsesEachType) {
  const auto s = specs();
  ParamValues values(s);
  EXPECT_TRUE(values.set("count", "7"));
  EXPECT_TRUE(values.set("rate", "1.25e-2"));
  EXPECT_TRUE(values.set("name", "x,y z"));
  EXPECT_TRUE(values.set("fast", ""));  // bare flag means true
  EXPECT_EQ(values.u64("count"), 7u);
  EXPECT_DOUBLE_EQ(values.f64("rate"), 0.0125);
  EXPECT_EQ(values.str("name"), "x,y z");
  EXPECT_TRUE(values.flag("fast"));
  EXPECT_TRUE(values.set("fast", "false"));
  EXPECT_FALSE(values.flag("fast"));
  // The ends of the ranges.
  EXPECT_TRUE(values.set("count", "18446744073709551615"));
  EXPECT_EQ(values.u64("count"), 18446744073709551615ull);
  EXPECT_TRUE(values.set("rate", "-1e-3"));
  EXPECT_DOUBLE_EQ(values.f64("rate"), -1e-3);
}

TEST(ParamValues, RejectsUnknownNameWithMessage) {
  const auto s = specs();
  ParamValues values(s);
  std::string error;
  EXPECT_FALSE(values.set("bogus", "1", &error));
  EXPECT_NE(error.find("unknown option --bogus"), std::string::npos);
}

TEST(ParamValues, RejectsTypeMismatches) {
  const auto s = specs();
  ParamValues values(s);
  std::string error;
  EXPECT_FALSE(values.set("count", "-1", &error));  // u64 is unsigned
  EXPECT_NE(error.find("expects a u64"), std::string::npos);
  EXPECT_FALSE(values.set("count", "3.5", &error));
  EXPECT_FALSE(values.set("count", "12monkeys", &error));
  EXPECT_FALSE(values.set("count", "", &error));
  EXPECT_FALSE(values.set("rate", "fast", &error));
  EXPECT_FALSE(values.set("fast", "maybe", &error));
  // Failed sets leave the previous value intact.
  EXPECT_EQ(values.u64("count"), 42u);
}

TEST(ParamValues, RejectsLeadingWhitespaceAndSigns) {
  // strtoull/strtod skip leading whitespace (and strtoull wraps
  // negatives), so " -1" must not validate as a u64.
  const auto s = specs();
  ParamValues values(s);
  EXPECT_FALSE(values.set("count", " -1"));
  EXPECT_FALSE(values.set("count", " 5"));
  EXPECT_FALSE(values.set("count", "+5"));
  EXPECT_FALSE(values.set("rate", " 0.5"));
  EXPECT_FALSE(values.set("rate", "\t1"));
  EXPECT_EQ(values.u64("count"), 42u);
}

TEST(ParamValues, U32AccessorRejectsOversizedValues) {
  const auto s = specs();
  ParamValues values(s);
  EXPECT_TRUE(values.set("count", "4294967295"));
  EXPECT_EQ(values.u32("count"), 4294967295u);
  EXPECT_TRUE(values.set("count", "4294967296"));
  EXPECT_THROW((void)values.u32("count"), std::invalid_argument);
}

TEST(ParamValues, F64RejectsNonFiniteSpellings) {
  // strtod reads every one of these; none is a usable parameter value.
  const auto s = specs();
  ParamValues values(s);
  std::string error;
  for (const char* text : {"nan", "NaN", "-nan", "nan(0x1)", "inf", "-inf",
                           "INF", "Infinity", "-INFINITY", "1e400"}) {
    EXPECT_FALSE(values.set("rate", text, &error)) << text;
    EXPECT_NE(error.find("expects a f64"), std::string::npos) << text;
    EXPECT_FALSE(parses_as(text, ParamSpec::Type::kF64)) << text;
  }
  EXPECT_DOUBLE_EQ(values.f64("rate"), 0.5);
}

TEST(ParamValues, BallsForRatioRoundsAndBoundsM) {
  const auto s = specs();
  ParamValues values(s);
  EXPECT_TRUE(values.set("rate", "0"));
  EXPECT_EQ(values.balls_for_ratio("rate", 64), 0u);  // the m = n default
  EXPECT_TRUE(values.set("rate", "1.5"));
  EXPECT_EQ(values.balls_for_ratio("rate", 64), 96u);
  EXPECT_TRUE(values.set("rate", "67108863.984375"));  // m = 2^32 - 1
  EXPECT_EQ(values.balls_for_ratio("rate", 64), 4294967295u);
  // Each rejection names the parameter.
  for (const char* text : {"-1", "-0.5", "67108864", "1e300", "0.001"}) {
    EXPECT_TRUE(values.set("rate", text)) << text;
    try {
      (void)values.balls_for_ratio("rate", 64);
      ADD_FAILURE() << text << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--rate="), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParamValues, FlagValueIsCanonicalizedInMetadataText) {
  const auto s = specs();
  ParamValues values(s);
  EXPECT_TRUE(values.set("fast", "1"));
  EXPECT_EQ(values.text("fast"), "true");
  EXPECT_TRUE(values.set("fast", "0"));
  EXPECT_EQ(values.text("fast"), "false");
}

TEST(ParamValues, AccessorsThrowOnUnknownName) {
  const auto s = specs();
  const ParamValues values(s);
  EXPECT_THROW((void)values.u64("nope"), std::out_of_range);
  EXPECT_THROW((void)values.text("nope"), std::out_of_range);
}

TEST(ParsesAs, StringAcceptsAnything) {
  EXPECT_TRUE(parses_as("", ParamSpec::Type::kString));
  EXPECT_TRUE(parses_as("anything at all", ParamSpec::Type::kString));
}

// --- example_main: the example programs' command line ----------------------

struct ExampleRun {
  int code = 0;
  bool ran = false;  // whether the run function was called
  std::string out;
  std::string err;
};

/// Runs example_main as the program "bin/prog" over `args`; `run` sees
/// the parsed values and returns 0 unless it throws.
ExampleRun example(const std::vector<std::string>& args,
                   const std::function<void(const ParamValues&)>& run =
                       [](const ParamValues&) {}) {
  std::vector<const char*> argv = {"bin/prog"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  const auto s = specs();
  std::ostringstream out;
  std::ostringstream err;
  ExampleRun result;
  result.code = example_main(
      static_cast<int>(argv.size()), argv.data(), "prog: a test program", s,
      [&](const ParamValues& values) {
        result.ran = true;
        run(values);
        return 0;
      },
      out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

TEST(ExampleMain, DefaultsApply) {
  const ExampleRun r = example({}, [](const ParamValues& v) {
    EXPECT_EQ(v.u64("count"), 42u);
    EXPECT_DOUBLE_EQ(v.f64("rate"), 0.5);
    EXPECT_EQ(v.str("name"), "dflt");
    EXPECT_FALSE(v.flag("fast"));
  });
  EXPECT_EQ(r.code, 0);
  EXPECT_TRUE(r.ran);
  EXPECT_EQ(r.out, "");
  EXPECT_EQ(r.err, "");
}

TEST(ExampleMain, EqualsAndSpaceForms) {
  const ExampleRun r = example(
      {"--count=64", "--rate", "2.5", "--name", "torus"},
      [](const ParamValues& v) {
        EXPECT_EQ(v.u64("count"), 64u);
        EXPECT_DOUBLE_EQ(v.f64("rate"), 2.5);
        EXPECT_EQ(v.str("name"), "torus");
      });
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(r.ran);
}

TEST(ExampleMain, FlagForms) {
  EXPECT_TRUE(example({"--fast"}, [](const ParamValues& v) {
                EXPECT_TRUE(v.flag("fast"));
              }).ran);
  EXPECT_TRUE(example({"--fast", "--count=1"}, [](const ParamValues& v) {
                EXPECT_TRUE(v.flag("fast"));
                EXPECT_EQ(v.u64("count"), 1u);
              }).ran);
  EXPECT_TRUE(example({"--fast=false"}, [](const ParamValues& v) {
                EXPECT_FALSE(v.flag("fast"));
              }).ran);
}

TEST(ExampleMain, RejectedCommandLinesExit2WithOneLine) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--bogus=1"},
                                             {"--count"},
                                             {"--count", "abc"},
                                             {"--count=4", "stray"},
                                             {"stray"}}) {
    const ExampleRun r = example(args);
    EXPECT_EQ(r.code, 2) << args.back();
    EXPECT_FALSE(r.ran) << args.back();
    EXPECT_EQ(r.err.rfind("prog: ", 0), 0u) << r.err;
    EXPECT_EQ(r.err.find('\n'), r.err.size() - 1) << r.err;
    EXPECT_EQ(r.out, "");
  }
  EXPECT_NE(example({"--bogus=1"}).err.find("unknown option --bogus"),
            std::string::npos);
  EXPECT_NE(example({"stray"}).err.find("unexpected argument \"stray\""),
            std::string::npos);
}

TEST(ExampleMain, InvalidArgumentFromTheRunExits2) {
  const ExampleRun r = example({}, [](const ParamValues&) {
    throw std::invalid_argument("n must be at least 2");
  });
  EXPECT_EQ(r.code, 2);
  EXPECT_EQ(r.err, "prog: n must be at least 2\n");
}

TEST(ExampleMain, OversizedU32NamesItsFlag) {
  const ExampleRun r = example(
      {"--count=4294967297"},
      [](const ParamValues& v) { (void)v.u32("count"); });
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("prog: --count=4294967297 exceeds the 32-bit range"),
            std::string::npos)
      << r.err;
}

TEST(ExampleMain, HelpPrintsEveryOptionWithItsDefault) {
  for (const char* help : {"--help", "-h"}) {
    const ExampleRun r = example({"--count=1", help});
    EXPECT_EQ(r.code, 0) << help;
    EXPECT_FALSE(r.ran) << help;
    EXPECT_EQ(r.err, "");
    EXPECT_EQ(
        r.out.rfind("prog: a test program\n\nusage: prog [options]\n", 0), 0u)
        << r.out;
    EXPECT_NE(r.out.find(render_param_table(specs())), std::string::npos);
    for (const ParamSpec& spec : specs()) {
      const std::size_t row = r.out.find("| --" + spec.name + " ");
      ASSERT_NE(row, std::string::npos) << spec.name;
      EXPECT_NE(r.out.find(" " + spec.default_value + " ", row),
                std::string::npos)
          << spec.name;
    }
  }
}

}  // namespace
}  // namespace rbb::runner

// Typed parameter parsing: the validation layer between user text and
// every experiment's run function.
#include <gtest/gtest.h>

#include <stdexcept>

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

}  // namespace
}  // namespace rbb::runner

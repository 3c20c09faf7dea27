// Tests for the CLI option parser.
#include "support/cli.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rbb {
namespace {

Cli make_cli() {
  Cli cli("test program");
  cli.add_u64("n", 1024, "bins");
  cli.add_double("beta", 4.0, "legitimacy constant");
  cli.add_string("graph", "complete", "topology");
  cli.add_flag("verbose", "chatty output");
  return cli;
}

bool parse(Cli& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return cli.parse(static_cast<int>(args.size()), args.data());
}

TEST(Cli, DefaultsApply) {
  Cli cli = make_cli();
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_EQ(cli.u64("n"), 1024u);
  EXPECT_DOUBLE_EQ(cli.f64("beta"), 4.0);
  EXPECT_EQ(cli.str("graph"), "complete");
  EXPECT_FALSE(cli.flag("verbose"));
}

TEST(Cli, EqualsForm) {
  Cli cli = make_cli();
  ASSERT_TRUE(parse(cli, {"--n=64", "--beta=2.5", "--graph=cycle"}));
  EXPECT_EQ(cli.u64("n"), 64u);
  EXPECT_DOUBLE_EQ(cli.f64("beta"), 2.5);
  EXPECT_EQ(cli.str("graph"), "cycle");
}

TEST(Cli, SpaceForm) {
  Cli cli = make_cli();
  ASSERT_TRUE(parse(cli, {"--n", "32", "--graph", "torus"}));
  EXPECT_EQ(cli.u64("n"), 32u);
  EXPECT_EQ(cli.str("graph"), "torus");
}

TEST(Cli, FlagForms) {
  Cli cli = make_cli();
  ASSERT_TRUE(parse(cli, {"--verbose"}));
  EXPECT_TRUE(cli.flag("verbose"));
  Cli cli2 = make_cli();
  ASSERT_TRUE(parse(cli2, {"--verbose=false"}));
  EXPECT_FALSE(cli2.flag("verbose"));
}

TEST(Cli, UnknownOptionFails) {
  Cli cli = make_cli();
  EXPECT_FALSE(parse(cli, {"--bogus=1"}));
  EXPECT_EQ(cli.exit_status(), 2);
}

TEST(Cli, MissingValueFails) {
  Cli cli = make_cli();
  EXPECT_FALSE(parse(cli, {"--n"}));
  EXPECT_EQ(cli.exit_status(), 2);
}

TEST(Cli, MalformedNumbersFail) {
  // Each used to parse (as 0, a wrapped 2^64-3, a prefix or nan) and
  // fail later in the program, if at all.
  for (const std::vector<const char*>& args :
       std::vector<std::vector<const char*>>{
           {"--n", "abc"}, {"--n=-3"}, {"--n= 5"}, {"--n=12x"}, {"--n="},
           {"--n=99999999999999999999999"}, {"--beta=nan"},
           {"--beta", "inf"}, {"--beta=2.5.1"}, {"--beta="}}) {
    Cli cli = make_cli();
    EXPECT_FALSE(parse(cli, args)) << args.back();
    EXPECT_EQ(cli.exit_status(), 2) << args.back();
  }
}

TEST(Cli, NumbersInRangeParse) {
  Cli cli = make_cli();
  ASSERT_TRUE(parse(cli, {"--n=18446744073709551615", "--beta=-1e-3"}));
  EXPECT_EQ(cli.u64("n"), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(cli.f64("beta"), -1e-3);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli = make_cli();
  EXPECT_FALSE(parse(cli, {"--help"}));
  EXPECT_EQ(cli.exit_status(), 0);
}

TEST(Cli, PositionalArgumentFails) {
  Cli cli = make_cli();
  EXPECT_FALSE(parse(cli, {"stray"}));
  EXPECT_EQ(cli.exit_status(), 2);
}

TEST(Cli, WrongTypeAccessThrows) {
  Cli cli = make_cli();
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_THROW((void)cli.u64("beta"), std::logic_error);
  EXPECT_THROW((void)cli.str("missing"), std::logic_error);
}

TEST(Cli, UsageMentionsOptionsAndDefaults) {
  Cli cli = make_cli();
  const std::string usage = cli.usage("prog");
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("default: 1024"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

}  // namespace
}  // namespace rbb

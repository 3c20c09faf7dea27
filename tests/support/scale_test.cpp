// Tests for the bench-scale value pickers.
#include "support/scale.hpp"

#include <gtest/gtest.h>

namespace rbb {
namespace {

TEST(Scale, BySkaleSelectsCorrectValue) {
  EXPECT_EQ(by_scale(BenchScale::kSmoke, 1, 2, 3), 1);
  EXPECT_EQ(by_scale(BenchScale::kDefault, 1, 2, 3), 2);
  EXPECT_EQ(by_scale(BenchScale::kPaper, 1, 2, 3), 3);
}

TEST(Scale, MegaFallsBackToPaperInThreeArgForm) {
  // Experiments without mega-specific sizes run their paper sweeps.
  EXPECT_EQ(by_scale(BenchScale::kMega, 1, 2, 3), 3);
}

TEST(Scale, FourArgFormGivesMegaItsOwnValue) {
  EXPECT_EQ(by_scale(BenchScale::kSmoke, 1, 2, 3, 4), 1);
  EXPECT_EQ(by_scale(BenchScale::kDefault, 1, 2, 3, 4), 2);
  EXPECT_EQ(by_scale(BenchScale::kPaper, 1, 2, 3, 4), 3);
  EXPECT_EQ(by_scale(BenchScale::kMega, 1, 2, 3, 4), 4);
}

TEST(Scale, ToStringRoundTrip) {
  EXPECT_EQ(to_string(BenchScale::kSmoke), "smoke");
  EXPECT_EQ(to_string(BenchScale::kDefault), "default");
  EXPECT_EQ(to_string(BenchScale::kPaper), "paper");
  EXPECT_EQ(to_string(BenchScale::kMega), "mega");
}

}  // namespace
}  // namespace rbb

// Tests for the online statistics accumulators.
#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace rbb {
namespace {

TEST(OnlineMoments, EmptyAccumulator) {
  OnlineMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.mean(), 0.0);
  EXPECT_EQ(m.variance(), 0.0);
  EXPECT_EQ(m.stderror(), 0.0);
}

TEST(OnlineMoments, SingleValue) {
  OnlineMoments m;
  m.add(5.0);
  EXPECT_EQ(m.count(), 1u);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_EQ(m.variance(), 0.0);
  EXPECT_EQ(m.min(), 5.0);
  EXPECT_EQ(m.max(), 5.0);
}

TEST(OnlineMoments, KnownMeanAndVariance) {
  OnlineMoments m;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.add(x);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  // Sample variance of the classic example: 32/7.
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(m.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(m.min(), 2.0);
  EXPECT_EQ(m.max(), 9.0);
}

TEST(OnlineMoments, MergeMatchesSequential) {
  OnlineMoments all;
  OnlineMoments a;
  OnlineMoments b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(OnlineMoments, MergeWithEmpty) {
  OnlineMoments a;
  a.add(1.0);
  a.add(3.0);
  OnlineMoments empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  OnlineMoments b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(OnlineMoments, Ci95ShrinksWithSamples) {
  OnlineMoments small;
  OnlineMoments large;
  for (int i = 0; i < 10; ++i) small.add(i % 2 == 0 ? 1.0 : -1.0);
  for (int i = 0; i < 1000; ++i) large.add(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Histogram, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.count_at(3), 0u);
  EXPECT_EQ(h.max_value(), 0u);
  EXPECT_EQ(h.tail_fraction(0), 0.0);
  EXPECT_THROW((void)h.quantile(0.5), std::logic_error);
}

TEST(Histogram, AddAndQuery) {
  Histogram h;
  h.add(3);
  h.add(3);
  h.add(7, 4);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.count_at(3), 2u);
  EXPECT_EQ(h.count_at(7), 4u);
  EXPECT_EQ(h.count_at(5), 0u);
  EXPECT_EQ(h.min_value(), 3u);
  EXPECT_EQ(h.max_value(), 7u);
  EXPECT_NEAR(h.mean(), (3.0 * 2 + 7.0 * 4) / 6.0, 1e-12);
}

TEST(Histogram, Quantiles) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.quantile(0.0), 1u);
  EXPECT_EQ(h.quantile(0.5), 50u);
  EXPECT_EQ(h.quantile(1.0), 100u);
  EXPECT_THROW((void)h.quantile(1.5), std::invalid_argument);
}

TEST(Histogram, TailFraction) {
  Histogram h;
  for (std::uint64_t v = 0; v < 10; ++v) h.add(v);
  EXPECT_NEAR(h.tail_fraction(0), 1.0, 1e-12);
  EXPECT_NEAR(h.tail_fraction(5), 0.5, 1e-12);
  EXPECT_NEAR(h.tail_fraction(10), 0.0, 1e-12);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a;
  Histogram b;
  a.add(1);
  a.add(2);
  b.add(2);
  b.add(10);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.count_at(2), 2u);
  EXPECT_EQ(a.count_at(10), 1u);
  EXPECT_EQ(a.max_value(), 10u);
}

TEST(Histogram, AddAtSizeGrowsByOne) {
  // The inline add's bounds check: value == counts().size() is the first
  // value that needs the out-of-line growth.
  Histogram h;
  h.add(2);
  ASSERT_EQ(h.counts().size(), 3u);
  h.add(h.counts().size());
  EXPECT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.count_at(3), 1u);
  EXPECT_EQ(h.count_at(2), 1u);
  EXPECT_EQ(h.count_at(0), 0u);
  EXPECT_EQ(h.total(), 2u);
  h.add(h.counts().size() - 1);  // in range: no growth
  EXPECT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.count_at(3), 2u);
}

TEST(Histogram, WeightedAddCountsTheWeight) {
  Histogram h;
  h.add(0, 5);  // grows from empty
  h.add(4, 3);  // grows
  h.add(4, 2);  // in range
  h.add(1, 0);  // zero weight: a value with no mass
  EXPECT_EQ(h.total(), 10u);
  EXPECT_EQ(h.count_at(0), 5u);
  EXPECT_EQ(h.count_at(4), 5u);
  EXPECT_EQ(h.count_at(1), 0u);
  EXPECT_EQ(h.max_value(), 4u);
  EXPECT_NEAR(h.mean(), 2.0, 1e-12);
}

TEST(Histogram, MergeAfterGrowth) {
  // Both sides grown by adds before the merge, the longer one on either
  // side: counts add bin by bin and the shorter side is zero-extended.
  Histogram a;
  Histogram b;
  a.add(1, 2);
  a.add(3);
  b.add(3, 4);
  b.add(9);
  Histogram c = b;
  a.merge(b);
  EXPECT_EQ(a.counts().size(), 10u);
  EXPECT_EQ(a.total(), 8u);
  EXPECT_EQ(a.count_at(1), 2u);
  EXPECT_EQ(a.count_at(3), 5u);
  EXPECT_EQ(a.count_at(9), 1u);
  Histogram d;
  d.add(1, 2);
  d.add(3);
  c.merge(d);
  EXPECT_EQ(c.counts(), a.counts());
  EXPECT_EQ(c.total(), a.total());
  a.add(12);  // grows past the merged size
  EXPECT_EQ(a.counts().size(), 13u);
  EXPECT_EQ(a.total(), 9u);
  EXPECT_EQ(a.max_value(), 12u);
}

TEST(TotalVariation, UniformDistributionIsZero) {
  EXPECT_NEAR(total_variation_from_uniform({5, 5, 5, 5}), 0.0, 1e-12);
}

TEST(TotalVariation, PointMassIsMaximal) {
  // TV(point mass, uniform over n) = 1 - 1/n.
  EXPECT_NEAR(total_variation_from_uniform({10, 0, 0, 0}), 0.75, 1e-12);
}

TEST(TotalVariation, KnownValue) {
  // p = (0.5, 0.5, 0, 0) vs uniform (0.25 each): TV = 0.5 * (0.25 + 0.25
  // + 0.25 + 0.25) = 0.5.
  EXPECT_NEAR(total_variation_from_uniform({1, 1, 0, 0}), 0.5, 1e-12);
}

TEST(TotalVariation, Validation) {
  EXPECT_THROW((void)total_variation_from_uniform({}),
               std::invalid_argument);
  EXPECT_THROW((void)total_variation_from_uniform({0, 0}),
               std::invalid_argument);
}

TEST(TotalVariationPair, IdenticalIsZeroDisjointIsOne) {
  EXPECT_NEAR(total_variation({2, 4}, {1, 2}), 0.0, 1e-12);  // same shape
  EXPECT_NEAR(total_variation({1, 0}, {0, 1}), 1.0, 1e-12);
  EXPECT_THROW((void)total_variation({1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW((void)total_variation({0}, {1}), std::invalid_argument);
}

TEST(MedianQuantile, Scalars) {
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);  // lower median
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0), 5.0);
  EXPECT_THROW((void)median({}), std::logic_error);
  EXPECT_THROW((void)quantile({1.0}, 2.0), std::invalid_argument);
}

}  // namespace
}  // namespace rbb

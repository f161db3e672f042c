#include "analysis/stats.h"

#include <gtest/gtest.h>

namespace vanet::analysis {
namespace {

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Percentile, Basics) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
  // Linear interpolation between order statistics.
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.25), 2.5);
}

}  // namespace
}  // namespace vanet::analysis

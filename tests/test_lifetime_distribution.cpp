// Sec. VII-A: the stochastic link-lifetime model under normally distributed
// relative speed (GVGrid / Yan premise).
#include "analysis/lifetime_distribution.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/rng.h"

namespace vanet::analysis {
namespace {

TEST(LifetimeDistribution, SurvivalStartsAtOneAndDecreases) {
  const LinkLifetimeDistribution d{250.0, 50.0, 5.0, 2.0};
  EXPECT_DOUBLE_EQ(d.survival(0.0), 1.0);
  double prev = 1.0;
  for (double t = 1.0; t <= 200.0; t += 1.0) {
    const double s = d.survival(t);
    EXPECT_LE(s, prev + 1e-12);
    prev = s;
  }
  EXPECT_LT(prev, 0.05);
}

TEST(LifetimeDistribution, DeterministicLimitMatchesClosedForm) {
  // sigma = 0, mu > 0: lifetime is exactly (r - d0)/mu.
  const LinkLifetimeDistribution d{250.0, 50.0, 10.0, 0.0};
  EXPECT_DOUBLE_EQ(d.expected_lifetime(), 20.0);
  EXPECT_DOUBLE_EQ(d.survival(19.9), 1.0);
  EXPECT_DOUBLE_EQ(d.survival(20.1), 0.0);
  // mu < 0: the pair closes, passes, and exits the other side.
  const LinkLifetimeDistribution d2{250.0, 50.0, -10.0, 0.0};
  EXPECT_DOUBLE_EQ(d2.expected_lifetime(), 30.0);
  // Stationary pair: truncated mean equals the horizon.
  const LinkLifetimeDistribution d3{250.0, 50.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(d3.expected_lifetime(100.0), 100.0);
}

TEST(LifetimeDistribution, FasterDriftShortensLife) {
  const LinkLifetimeDistribution slow{250.0, 0.0, 2.0, 1.0};
  const LinkLifetimeDistribution fast{250.0, 0.0, 20.0, 1.0};
  EXPECT_GT(slow.expected_lifetime(), fast.expected_lifetime());
  EXPECT_GT(slow.survival(10.0), fast.survival(10.0));
}

TEST(LifetimeDistribution, CloserPairsLiveLonger) {
  const LinkLifetimeDistribution near{250.0, 0.0, 5.0, 2.0};
  const LinkLifetimeDistribution far{250.0, 200.0, 5.0, 2.0};
  EXPECT_GT(near.expected_lifetime(), far.expected_lifetime());
}

// Property: survival and expectation match Monte Carlo over (d0, mu, sigma).
class LifetimeDistProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(LifetimeDistProperty, MatchesMonteCarlo) {
  const auto [d0, mu, sigma] = GetParam();
  const double r = 250.0;
  const double horizon = 300.0;
  const LinkLifetimeDistribution dist{r, d0, mu, sigma};
  core::Rng rng{1234};
  const int n = 20000;
  int alive_at_10 = 0;
  double total_life = 0.0;
  for (int i = 0; i < n; ++i) {
    const double dv = rng.normal(mu, sigma);
    // Linear separation: exit time of (-r, r) from d0 at rate dv.
    double life;
    if (std::abs(dv) < 1e-12) {
      life = horizon;
    } else if (dv > 0.0) {
      life = (r - d0) / dv;
    } else {
      life = (r + d0) / -dv;
    }
    if (life > 10.0) ++alive_at_10;
    total_life += std::min(life, horizon);
  }
  EXPECT_NEAR(static_cast<double>(alive_at_10) / n, dist.survival(10.0), 0.015);
  // Compare the same truncated expectation on both sides.
  const double e = dist.expected_lifetime(horizon);
  EXPECT_NEAR(total_life / n, e, std::max(0.6, 0.05 * e));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LifetimeDistProperty,
    ::testing::Values(std::make_tuple(0.0, 5.0, 2.0),
                      std::make_tuple(100.0, 5.0, 2.0),
                      std::make_tuple(-100.0, 10.0, 4.0),
                      std::make_tuple(50.0, -8.0, 3.0),
                      std::make_tuple(200.0, 15.0, 1.0)));

}  // namespace
}  // namespace vanet::analysis

// Tests for the paper's analytical core (Eqns. 1-4, Fig. 3): exact link
// lifetimes under piecewise-quadratic kinematics, validated case by case and
// property-style against brute-force simulation of the separation.
#include "analysis/link_lifetime.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/rng.h"

namespace vanet::analysis {
namespace {

TEST(LinkLifetime1D, ConstantSpeedsReceding) {
  // i ahead by 100 m, moving 5 m/s faster: breaks at +r when d hits 250.
  const auto r = link_lifetime_1d({30.0, 0.0}, {25.0, 0.0}, 100.0, 250.0);
  EXPECT_NEAR(r.lifetime, (250.0 - 100.0) / 5.0, 1e-9);
  EXPECT_EQ(r.indicator, 1);
}

TEST(LinkLifetime1D, ConstantSpeedsCatchingUpAndPassing) {
  // j ahead (d0 < 0), i faster: i closes in, passes, link breaks at +r.
  const auto r = link_lifetime_1d({30.0, 0.0}, {20.0, 0.0}, -100.0, 250.0);
  // d(t) = -100 + 10 t = 250 -> t = 35.
  EXPECT_NEAR(r.lifetime, 35.0, 1e-9);
  EXPECT_EQ(r.indicator, 1);  // i is ahead at the break
}

TEST(LinkLifetime1D, EqualSpeedsNeverBreak) {
  const auto r = link_lifetime_1d({25.0, 0.0}, {25.0, 0.0}, 50.0, 250.0);
  EXPECT_TRUE(std::isinf(r.lifetime));
  EXPECT_EQ(r.indicator, 0);
}

TEST(LinkLifetime1D, AlreadyOutOfRange) {
  const auto r = link_lifetime_1d({30.0, 0.0}, {30.0, 0.0}, 300.0, 250.0);
  EXPECT_DOUBLE_EQ(r.lifetime, 0.0);
  EXPECT_EQ(r.indicator, 1);
  const auto r2 = link_lifetime_1d({30.0, 0.0}, {30.0, 0.0}, -300.0, 250.0);
  EXPECT_EQ(r2.indicator, -1);
}

TEST(LinkLifetime1D, Fig3aLeaderAccelerates) {
  // Fig. 3(a): i ahead and accelerating away; j steady. Quadratic crossing.
  // d(t) = 50 + 0.5 * 1.0 * t^2 = 250 -> t = sqrt(400) = 20.
  const auto r =
      link_lifetime_1d({30.0, 1.0}, {30.0, 0.0}, 50.0, 250.0,
                       /*v_max=*/1000.0);
  EXPECT_NEAR(r.lifetime, 20.0, 1e-9);
  EXPECT_EQ(r.indicator, 1);
}

TEST(LinkLifetime1D, Fig3bFollowerBrakes) {
  // Fig. 3(b): follower j decelerates; separation grows quadratically until
  // j stops, then linearly at speed v_i.
  // Phase 1 (0..5 s, while j brakes from 10 at -2): relative accel +2,
  // relative speed 0 -> d = 100 + t^2; at t=5: d = 125, j stopped.
  // Phase 2: d grows at 10 m/s: 250 reached at t = 5 + 12.5 = 17.5.
  const auto r = link_lifetime_1d({10.0, 0.0}, {10.0, -2.0}, 100.0, 250.0);
  EXPECT_NEAR(r.lifetime, 17.5, 1e-9);
  EXPECT_EQ(r.indicator, 1);
}

TEST(LinkLifetime1D, SpeedLimitSaturation) {
  // i accelerates but saturates at the speed limit v_m = 35: afterwards the
  // relative speed is constant (5 m/s).
  // Phase 1 (0..5 s): d = 0 + 0.5*1*t^2 -> d(5) = 12.5.
  // Phase 2: relative speed 5 -> reach 250 after (250-12.5)/5 = 47.5 s.
  const auto r =
      link_lifetime_1d({30.0, 1.0}, {30.0, 0.0}, 0.0, 250.0, /*v_max=*/35.0);
  EXPECT_NEAR(r.lifetime, 52.5, 1e-9);
}

TEST(LinkLifetime1D, OppositeDirectionsBreakFast) {
  // Opposite traffic at +-30 m/s passing each other: relative speed 60.
  const auto same = link_lifetime_1d({30.0, 0.0}, {28.0, 0.0}, 0.0, 250.0);
  const auto opposite = link_lifetime_1d({30.0, 0.0}, {-30.0, 0.0}, 0.0, 250.0);
  EXPECT_NEAR(opposite.lifetime, 250.0 / 60.0, 1e-9);
  EXPECT_GT(same.lifetime, 10.0 * opposite.lifetime);
}

TEST(LinkLifetime1D, SeparationAtMatchesCrossing) {
  const Kinematics1D i{25.0, 0.8}, j{32.0, -0.5};
  const double d0 = -80.0, r = 200.0, vmax = 40.0;
  const auto res = link_lifetime_1d(i, j, d0, r, vmax);
  ASSERT_TRUE(std::isfinite(res.lifetime));
  const double d_at_break = separation_at(i, j, d0, res.lifetime, vmax);
  EXPECT_NEAR(std::abs(d_at_break), r, 1e-6);
  EXPECT_EQ(res.indicator, d_at_break >= 0.0 ? 1 : -1);
  // Strictly inside the disk just before the break.
  EXPECT_LT(std::abs(separation_at(i, j, d0, res.lifetime * 0.99, vmax)), r);
}

TEST(LinkLifetime2D, MatchesClosedFormInOneDimension) {
  // Same scenario as ConstantSpeedsReceding, expressed as 2-D vectors.
  const auto t = link_lifetime_2d({100.0, 0.0}, {30.0, 0.0}, {0.0, 0.0},
                                  {0.0, 0.0}, {25.0, 0.0}, {0.0, 0.0}, 250.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 30.0, 1e-3);
}

TEST(LinkLifetime2D, PerpendicularMotion) {
  // j drives away perpendicular at 20 m/s from the same point:
  // distance = 20 t = 250 -> t = 12.5.
  const auto t = link_lifetime_2d({0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0},
                                  {0.0, 0.0}, {0.0, 20.0}, {0.0, 0.0}, 250.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 12.5, 1e-3);
}

TEST(LinkLifetime2D, SurvivesHorizonReturnsNullopt) {
  const auto t = link_lifetime_2d({0.0, 0.0}, {20.0, 0.0}, {0.0, 0.0},
                                  {10.0, 0.0}, {20.0, 0.0}, {0.0, 0.0}, 250.0,
                                  /*horizon=*/30.0);
  EXPECT_FALSE(t.has_value());
}

TEST(LinkLifetime2D, AlreadyOutOfRangeIsZero) {
  const auto t = link_lifetime_2d({0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0},
                                  {400.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, 250.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 0.0);
}

// Property sweep: the closed form must agree with brute-force integration of
// the separation for random kinematics (Fig. 3's "different combinations of
// vi, vj, ai and aj").
class LifetimeProperty : public ::testing::TestWithParam<int> {};

TEST_P(LifetimeProperty, ClosedFormMatchesBruteForce) {
  core::Rng rng{static_cast<std::uint64_t>(GetParam())};
  const double r = 250.0;
  const double vmax = 40.0;
  for (int trial = 0; trial < 50; ++trial) {
    const Kinematics1D i{rng.uniform(0.0, 40.0), rng.uniform(-3.0, 3.0)};
    const Kinematics1D j{rng.uniform(0.0, 40.0), rng.uniform(-3.0, 3.0)};
    const double d0 = rng.uniform(-240.0, 240.0);
    const auto res = link_lifetime_1d(i, j, d0, r, vmax);
    if (!std::isfinite(res.lifetime)) {
      // Verify the link indeed survives a long horizon.
      for (double t = 0.0; t < 600.0; t += 1.0) {
        EXPECT_LT(std::abs(separation_at(i, j, d0, t, vmax)), r + 1e-6);
      }
      continue;
    }
    // Brute force: step finely and find the first |d| >= r.
    double brute = -1.0;
    const double dt = 1e-3;
    for (double t = 0.0; t < res.lifetime + 5.0; t += dt) {
      if (std::abs(separation_at(i, j, d0, t, vmax)) >= r) {
        brute = t;
        break;
      }
    }
    ASSERT_GE(brute, 0.0) << "brute force found no crossing";
    EXPECT_NEAR(res.lifetime, brute, 2e-3)
        << "vi=" << i.v << " ai=" << i.a << " vj=" << j.v << " aj=" << j.a
        << " d0=" << d0;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LifetimeProperty, ::testing::Range(1, 6));

}  // namespace
}  // namespace vanet::analysis

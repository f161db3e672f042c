#include "core/vec2.h"

#include <gtest/gtest.h>

namespace vanet::core {
namespace {

TEST(Vec2, BasicOps) {
  const Vec2 a{3.0, 4.0};
  const Vec2 b{1.0, -2.0};
  EXPECT_EQ((a + b), (Vec2{4.0, 2.0}));
  EXPECT_EQ((a - b), (Vec2{2.0, 6.0}));
  EXPECT_EQ((a * 2.0), (Vec2{6.0, 8.0}));
  EXPECT_EQ((a / 2.0), (Vec2{1.5, 2.0}));
}

TEST(Vec2, NormAndDot) {
  const Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm_sq(), 25.0);
  EXPECT_DOUBLE_EQ(a.dot({1.0, 0.0}), 3.0);
  EXPECT_DOUBLE_EQ(a.cross({1.0, 0.0}), -4.0);
}

TEST(Vec2, Normalized) {
  const Vec2 a{3.0, 4.0};
  const Vec2 u = a.normalized();
  EXPECT_NEAR(u.norm(), 1.0, 1e-12);
  EXPECT_NEAR(u.x, 0.6, 1e-12);
  EXPECT_EQ(Vec2{}.normalized(), Vec2{});
}

TEST(Vec2, DistanceToSegmentInterior) {
  // Point above the middle of a horizontal segment.
  EXPECT_DOUBLE_EQ(distance_to_segment({5.0, 3.0}, {0.0, 0.0}, {10.0, 0.0}), 3.0);
}

TEST(Vec2, DistanceToSegmentEndpoints) {
  // Beyond either end, distance is to the nearest endpoint.
  EXPECT_DOUBLE_EQ(distance_to_segment({-3.0, 4.0}, {0.0, 0.0}, {10.0, 0.0}),
                   5.0);
  EXPECT_DOUBLE_EQ(distance_to_segment({14.0, 3.0}, {0.0, 0.0}, {10.0, 0.0}),
                   5.0);
}

TEST(Vec2, DistanceToDegenerateSegment) {
  EXPECT_DOUBLE_EQ(distance_to_segment({3.0, 4.0}, {0.0, 0.0}, {0.0, 0.0}), 5.0);
}

TEST(Vec2, PointOnSegmentIsZero) {
  EXPECT_DOUBLE_EQ(distance_to_segment({5.0, 0.0}, {0.0, 0.0}, {10.0, 0.0}), 0.0);
}

}  // namespace
}  // namespace vanet::core

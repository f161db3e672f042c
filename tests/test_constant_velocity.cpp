#include "util/constant_velocity.h"

#include <gtest/gtest.h>

#include "core/rng.h"

namespace vanet::mobility {
namespace {

TEST(ConstantVelocity, StraightLineMotion) {
  ConstantVelocityModel m;
  const VehicleId id = m.add_vehicle({0.0, 0.0}, {1.0, 0.0}, 20.0);
  core::Rng rng{1};
  m.step(0.5, rng);
  EXPECT_NEAR(m.state(id).pos.x, 10.0, 1e-12);
  EXPECT_NEAR(m.state(id).pos.y, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.state(id).speed, 20.0);
}

TEST(ConstantVelocity, HeadingIsNormalized) {
  ConstantVelocityModel m;
  const VehicleId id = m.add_vehicle({0.0, 0.0}, {3.0, 4.0}, 10.0);
  EXPECT_NEAR(m.state(id).heading.norm(), 1.0, 1e-12);
  core::Rng rng{1};
  m.step(1.0, rng);
  EXPECT_NEAR(m.state(id).pos.x, 6.0, 1e-12);
  EXPECT_NEAR(m.state(id).pos.y, 8.0, 1e-12);
}

TEST(ConstantVelocity, ConstantAccelerationKinematics) {
  ConstantVelocityModel m;
  const VehicleId id = m.add_vehicle({0.0, 0.0}, {1.0, 0.0}, 10.0, 2.0);
  core::Rng rng{1};
  m.step(3.0, rng);
  // s = v t + a t^2 / 2 = 30 + 9 = 39; v = 16.
  EXPECT_NEAR(m.state(id).pos.x, 39.0, 1e-12);
  EXPECT_NEAR(m.state(id).speed, 16.0, 1e-12);
}

TEST(ConstantVelocity, DecelerationStopsAtZero) {
  ConstantVelocityModel m;
  const VehicleId id = m.add_vehicle({0.0, 0.0}, {1.0, 0.0}, 10.0, -5.0);
  core::Rng rng{1};
  m.step(4.0, rng);  // would reverse without the clamp (stops at t=2, s=10)
  EXPECT_NEAR(m.state(id).pos.x, 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.state(id).speed, 0.0);
  m.step(1.0, rng);
  EXPECT_NEAR(m.state(id).pos.x, 10.0, 1e-12);  // stays stopped
}

TEST(ConstantVelocity, RingWrapsPosition) {
  ConstantVelocityModel m{1000.0};
  const VehicleId id = m.add_vehicle({900.0, 5.0}, {1.0, 0.0}, 50.0);
  core::Rng rng{1};
  m.step(4.0, rng);  // 900 + 200 = 1100 -> 100
  EXPECT_NEAR(m.state(id).pos.x, 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.state(id).pos.y, 5.0);
}

TEST(ConstantVelocity, RingWrapsNegative) {
  ConstantVelocityModel m{1000.0};
  const VehicleId id = m.add_vehicle({50.0, 0.0}, {-1.0, 0.0}, 30.0);
  core::Rng rng{1};
  m.step(5.0, rng);  // 50 - 150 = -100 -> 900
  EXPECT_NEAR(m.state(id).pos.x, 900.0, 1e-9);
}

TEST(ConstantVelocity, IdsAreSequential) {
  ConstantVelocityModel m;
  EXPECT_EQ(m.add_vehicle({0, 0}, {1, 0}, 1.0), 0u);
  EXPECT_EQ(m.add_vehicle({0, 0}, {1, 0}, 1.0), 1u);
  EXPECT_EQ(m.vehicles().size(), 2u);
}

}  // namespace
}  // namespace vanet::mobility

#include "mobility/mobility_manager.h"
#include "util/constant_velocity.h"

#include <gtest/gtest.h>

#include <memory>


namespace vanet::mobility {
namespace {

std::unique_ptr<ConstantVelocityModel> two_vehicle_model() {
  auto m = std::make_unique<ConstantVelocityModel>();
  m->add_vehicle({0.0, 0.0}, {1.0, 0.0}, 10.0);
  m->add_vehicle({100.0, 0.0}, {-1.0, 0.0}, 5.0);
  return m;
}

TEST(MobilityManager, StepsOnTicks) {
  core::Simulator sim;
  core::RngManager rngs{1};
  MobilityManager mgr{sim, two_vehicle_model(), rngs.stream("m"),
                      core::SimTime::millis(100)};
  mgr.start();
  sim.run_until(core::SimTime::seconds(1.0));
  EXPECT_NEAR(mgr.state(0).pos.x, 10.0, 1e-9);
  EXPECT_NEAR(mgr.state(1).pos.x, 95.0, 1e-9);
}

TEST(MobilityManager, ListenersFirePerTick) {
  core::Simulator sim;
  core::RngManager rngs{1};
  MobilityManager mgr{sim, two_vehicle_model(), rngs.stream("m"),
                      core::SimTime::millis(200)};
  int ticks = 0;
  core::SimTime last{};
  mgr.add_tick_listener([&](core::SimTime t) {
    ++ticks;
    last = t;
  });
  mgr.start();
  sim.run_until(core::SimTime::seconds(1.0));
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(last, core::SimTime::seconds(1.0));
}

TEST(MobilityManager, HasVehicleAndIndex) {
  core::Simulator sim;
  core::RngManager rngs{1};
  MobilityManager mgr{sim, two_vehicle_model(), rngs.stream("m")};
  EXPECT_TRUE(mgr.has_vehicle(0));
  EXPECT_TRUE(mgr.has_vehicle(1));
  EXPECT_FALSE(mgr.has_vehicle(2));
  EXPECT_EQ(mgr.vehicles().size(), 2u);
  EXPECT_EQ(mgr.state(1).id, 1u);
}

}  // namespace
}  // namespace vanet::mobility

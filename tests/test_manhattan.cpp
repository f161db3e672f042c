#include "mobility/manhattan_grid.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"

namespace vanet::mobility {
namespace {

ManhattanConfig grid_config() {
  ManhattanConfig cfg;
  cfg.streets_x = 4;
  cfg.streets_y = 3;
  cfg.block = 100.0;
  return cfg;
}

bool on_grid_line(const core::Vec2& p, double block, double tol = 1e-6) {
  const double rx = std::abs(p.x - std::round(p.x / block) * block);
  const double ry = std::abs(p.y - std::round(p.y / block) * block);
  return rx < tol || ry < tol;
}

TEST(Manhattan, VehiclesStayOnStreets) {
  ManhattanGridModel m{grid_config()};
  core::Rng rng{21};
  m.populate(30, rng);
  for (int i = 0; i < 500; ++i) {
    m.step(0.1, rng);
    for (const auto& v : m.vehicles()) {
      EXPECT_TRUE(on_grid_line(v.pos, 100.0)) << "off-street at " << v.pos.x
                                              << "," << v.pos.y;
    }
  }
}

TEST(Manhattan, VehiclesStayInBounds) {
  const ManhattanConfig cfg = grid_config();
  const double width = (cfg.streets_x - 1) * cfg.block;
  const double height = (cfg.streets_y - 1) * cfg.block;
  ManhattanGridModel m{cfg};
  core::Rng rng{22};
  m.populate(30, rng);
  for (int i = 0; i < 1000; ++i) m.step(0.1, rng);
  for (const auto& v : m.vehicles()) {
    EXPECT_GE(v.pos.x, -1e-6);
    EXPECT_LE(v.pos.x, width + 1e-6);
    EXPECT_GE(v.pos.y, -1e-6);
    EXPECT_LE(v.pos.y, height + 1e-6);
  }
}

TEST(Manhattan, ConstantSpeedAlongStreets) {
  ManhattanGridModel m{grid_config()};
  const VehicleId id = m.add_vehicle(0, 0, 0, 10.0);
  core::Rng rng{23};
  const core::Vec2 start = m.state(id).pos;
  m.step(1.0, rng);
  // Travelled exactly 10 m of street (possibly around a corner).
  const double manhattan_dist = std::abs(m.state(id).pos.x - start.x) +
                                std::abs(m.state(id).pos.y - start.y);
  EXPECT_NEAR(manhattan_dist, 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.state(id).speed, 10.0);
}

TEST(Manhattan, HeadingIsAxisAligned) {
  ManhattanGridModel m{grid_config()};
  core::Rng rng{24};
  m.populate(20, rng);
  for (int i = 0; i < 200; ++i) {
    m.step(0.1, rng);
    for (const auto& v : m.vehicles()) {
      EXPECT_NEAR(std::abs(v.heading.x) + std::abs(v.heading.y), 1.0, 1e-12);
    }
  }
}

TEST(Manhattan, TurnsChangeDirection) {
  // Straight probability zero: the vehicle must turn at every intersection.
  ManhattanConfig cfg = grid_config();
  cfg.turn_prob_left = 0.5;
  cfg.turn_prob_right = 0.5;
  ManhattanGridModel m{cfg};
  const VehicleId id = m.add_vehicle(1, 1, 0, 10.0);
  core::Rng rng{25};
  const core::Vec2 h0 = m.state(id).heading;
  // Drive past the next intersection (100 m away at 10 m/s).
  for (int i = 0; i < 120; ++i) m.step(0.1, rng);
  const core::Vec2 h1 = m.state(id).heading;
  EXPECT_NE(h0, h1);  // turned left or right
}

TEST(Manhattan, CornerVehicleStaysInGrid) {
  ManhattanGridModel m{grid_config()};
  // Start at a corner heading along the boundary.
  const VehicleId id = m.add_vehicle(0, 0, 0, 15.0);
  core::Rng rng{26};
  for (int i = 0; i < 2000; ++i) m.step(0.1, rng);
  EXPECT_GE(m.state(id).pos.x, -1e-6);
  EXPECT_GE(m.state(id).pos.y, -1e-6);
}

TEST(Manhattan, RejectsOffGridSpawn) {
  ManhattanGridModel m{grid_config()};
  // Heading -x from the west edge would leave the grid immediately.
  EXPECT_DEATH(m.add_vehicle(0, 0, 1, 10.0), "initial direction");
}

}  // namespace
}  // namespace vanet::mobility

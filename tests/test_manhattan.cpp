// Manhattan mobility: GraphMobilityModel's turn rule on a lattice RoadGraph.
// The street, bounds, speed and heading properties of the urban model, and
// the rule's law: turn frequencies, reversal only where forced, and
// populate's directed-segment start.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "mobility/graph_mobility.h"

namespace vanet::mobility {
namespace {

ManhattanConfig grid_config() {
  ManhattanConfig cfg;
  cfg.streets_x = 4;
  cfg.streets_y = 3;
  cfg.block = 100.0;
  return cfg;
}

std::shared_ptr<const map::RoadGraph> lattice(const ManhattanConfig& cfg) {
  return std::make_shared<const map::RoadGraph>(cfg.streets_x, cfg.streets_y,
                                                cfg.block);
}

/// Lattice intersection id of (ix, iy) (map::RoadGraph's lattice numbering).
int node(const ManhattanConfig& cfg, int ix, int iy) {
  return iy * cfg.streets_x + ix;
}

bool on_grid_line(const core::Vec2& p, double block, double tol = 1e-6) {
  const double rx = std::abs(p.x - std::round(p.x / block) * block);
  const double ry = std::abs(p.y - std::round(p.y / block) * block);
  return rx < tol || ry < tol;
}

/// Four binomial standard deviations of a share `p` over `n` draws.
double four_sigma(double p, int n) {
  return 4.0 * std::sqrt(p * (1.0 - p) / n);
}

TEST(Manhattan, VehiclesStayOnStreets) {
  const ManhattanConfig cfg = grid_config();
  GraphMobilityModel m{lattice(cfg), cfg};
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
  GraphMobilityModel m{lattice(cfg), cfg};
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
  const ManhattanConfig cfg = grid_config();
  GraphMobilityModel m{lattice(cfg), cfg};
  const VehicleId id = m.add_vehicle(node(cfg, 0, 0), node(cfg, 1, 0), 10.0);
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
  const ManhattanConfig cfg = grid_config();
  GraphMobilityModel m{lattice(cfg), cfg};
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
  GraphMobilityModel m{lattice(cfg), cfg};
  const VehicleId id = m.add_vehicle(node(cfg, 1, 1), node(cfg, 2, 1), 10.0);
  core::Rng rng{25};
  const core::Vec2 h0 = m.state(id).heading;
  // Drive past the next intersection (100 m away at 10 m/s).
  for (int i = 0; i < 120; ++i) m.step(0.1, rng);
  const core::Vec2 h1 = m.state(id).heading;
  EXPECT_NEAR(h0.dot(h1), 0.0, 1e-12);  // turned left or right
}

TEST(Manhattan, CornerVehicleStaysInGrid) {
  const ManhattanConfig cfg = grid_config();
  GraphMobilityModel m{lattice(cfg), cfg};
  // Start at a corner heading along the boundary.
  const VehicleId id = m.add_vehicle(node(cfg, 0, 0), node(cfg, 1, 0), 15.0);
  core::Rng rng{26};
  for (int i = 0; i < 2000; ++i) m.step(0.1, rng);
  EXPECT_GE(m.state(id).pos.x, -1e-6);
  EXPECT_GE(m.state(id).pos.y, -1e-6);
}

TEST(Manhattan, RejectsSpawnOffTheStreets) {
  const ManhattanConfig cfg = grid_config();
  GraphMobilityModel m{lattice(cfg), cfg};
  // (0, 0) and (1, 1) are diagonal neighbours: no street joins them.
  EXPECT_DEATH(m.add_vehicle(node(cfg, 0, 0), node(cfg, 1, 1), 10.0),
               "no segment joins");
}

// At intersections with all four streets, straight, left and right are taken
// with their configured weights: each share within four binomial sigmas.
TEST(Manhattan, TurnFrequenciesMatchTheirWeights) {
  ManhattanConfig cfg;
  cfg.streets_x = 6;
  cfg.streets_y = 6;
  cfg.block = 100.0;
  cfg.speed_mean = 10.0;
  cfg.speed_stddev = 0.0;
  cfg.turn_prob_left = 0.2;
  cfg.turn_prob_right = 0.3;
  const auto graph = lattice(cfg);
  GraphMobilityModel m{graph, cfg};
  core::Rng rng{27};
  m.populate(60, rng);
  int straight = 0, left = 0, right = 0;
  for (int i = 0; i < 2000; ++i) {
    std::vector<int> before_seg;
    std::vector<core::Vec2> before_heading;
    for (const auto& v : m.vehicles()) {
      before_seg.push_back(m.current_segment(v.id));
      before_heading.push_back(v.heading);
    }
    m.step(1.0, rng);  // 10 m per step: at most one intersection crossed
    for (const auto& v : m.vehicles()) {
      const int seg = m.current_segment(v.id);
      if (seg == before_seg[v.id]) continue;
      // The crossed intersection is the one the car just left behind.
      const int here = graph->nearest_intersection(v.pos);
      if (graph->degree(here) != 4) continue;
      const core::Vec2 h0 = before_heading[v.id];
      if (h0.dot(v.heading) > 0.5) {
        ++straight;
      } else if (h0.cross(v.heading) > 0.5) {
        ++left;
      } else {
        ++right;
      }
    }
  }
  const int n = straight + left + right;
  ASSERT_GT(n, 2000);
  EXPECT_NEAR(static_cast<double>(straight) / n, 0.5, four_sigma(0.5, n));
  EXPECT_NEAR(static_cast<double>(left) / n, 0.2, four_sigma(0.2, n));
  EXPECT_NEAR(static_cast<double>(right) / n, 0.3, four_sigma(0.3, n));
}

/// Drives one car from 0 toward 1 over `graph` and returns how many times it
/// reversed; expects every reversal at an intersection with no other exit,
/// or — with `forced_at_straight`, where straight weighs 0 — at one whose
/// only other exit is straight ahead.
int reversals(const std::shared_ptr<const map::RoadGraph>& graph,
              const ManhattanConfig& cfg, bool forced_at_straight) {
  GraphMobilityModel m{graph, cfg};
  const VehicleId id = m.add_vehicle(0, 1, 10.0);
  core::Rng rng{28};
  int count = 0;
  for (int i = 0; i < 3000; ++i) {
    const core::Vec2 h0 = m.state(id).heading;
    m.step(1.0, rng);
    const core::Vec2 h1 = m.state(id).heading;
    if (h0.dot(h1) > -0.5) continue;
    ++count;
    const int here = graph->nearest_intersection(m.state(id).pos);
    if (graph->degree(here) == 1) continue;
    EXPECT_TRUE(forced_at_straight && graph->degree(here) == 2)
        << "reversed at intersection " << here << " of degree "
        << graph->degree(here);
  }
  return count;
}

// A car reverses at a dead end and nowhere else: on a lattice never, on a
// T-shaped road only at the three stubs' ends.
TEST(Manhattan, ReversesOnlyAtADeadEnd) {
  const ManhattanConfig cfg = grid_config();
  EXPECT_EQ(reversals(lattice(cfg), cfg, false), 0);

  auto tee = std::make_shared<map::RoadGraph>();
  tee->add_intersection({0.0, 0.0});      // 0: west stub end
  tee->add_intersection({100.0, 0.0});    // 1: the junction
  tee->add_intersection({200.0, 0.0});    // 2: east stub end
  tee->add_intersection({100.0, 100.0});  // 3: north stub end
  tee->add_segment(0, 1);
  tee->add_segment(1, 2);
  tee->add_segment(1, 3);
  EXPECT_GT(reversals(tee, cfg, false), 10);

  // With straight weighing 0, a car driving straight through a bend-free
  // two-street road has no exit it may take, so it reverses there too.
  ManhattanConfig turning = cfg;
  turning.turn_prob_left = 0.5;
  turning.turn_prob_right = 0.5;
  auto line = std::make_shared<map::RoadGraph>(3, 1, 100.0);
  EXPECT_GT(reversals(line, turning, true), 10);
}

// populate starts each car at the tail of a uniformly drawn directed segment,
// the law of a uniform (intersection, direction) draw that rejects
// directions leaving the lattice: an intersection of degree d is a start
// with probability d / (2 * segments).
TEST(Manhattan, PopulateStartsOnUniformDirectedSegments) {
  const ManhattanConfig cfg = grid_config();  // 4 x 3: 17 segments
  const auto graph = lattice(cfg);
  GraphMobilityModel m{graph, cfg};
  core::Rng rng{29};
  constexpr int kCars = 20000;
  m.populate(kCars, rng);
  std::array<int, 5> by_degree{};
  for (const auto& v : m.vehicles()) {
    const int at = graph->nearest_intersection(v.pos);
    ASSERT_EQ(v.pos, graph->intersection_pos(at)) << "starts mid-street";
    ++by_degree.at(static_cast<std::size_t>(graph->degree(at)));
  }
  const double directed = 2.0 * static_cast<double>(graph->segment_count());
  ASSERT_EQ(directed, 34.0);
  // 4 corners of degree 2, 6 border intersections of degree 3, 2 interior
  // intersections of degree 4.
  const double corner = 4 * 2 / directed;
  const double border = 6 * 3 / directed;
  const double interior = 2 * 4 / directed;
  EXPECT_NEAR(static_cast<double>(by_degree[2]) / kCars, corner,
              four_sigma(corner, kCars));
  EXPECT_NEAR(static_cast<double>(by_degree[3]) / kCars, border,
              four_sigma(border, kCars));
  EXPECT_NEAR(static_cast<double>(by_degree[4]) / kCars, interior,
              four_sigma(interior, kCars));
}

}  // namespace
}  // namespace vanet::mobility

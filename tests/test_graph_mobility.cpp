// Graph-constrained mobility: vehicles must never leave the road graph, trips
// must make progress, and stepping must stay seed-deterministic.
#include "mobility/graph_mobility.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/rng.h"
#include "map/builders.h"

namespace vanet::mobility {
namespace {

std::shared_ptr<const map::RoadGraph> triangle_graph() {
  auto g = std::make_shared<map::RoadGraph>();
  g->add_intersection({0.0, 0.0});
  g->add_intersection({400.0, 0.0});
  g->add_intersection({200.0, 350.0});
  g->add_intersection({600.0, 300.0});
  g->add_segment(0, 1);
  g->add_segment(1, 2);
  g->add_segment(2, 0);
  g->add_segment(1, 3);
  g->add_segment(2, 3);
  return g;
}

double distance_to_current_segment(const GraphMobilityModel& m,
                                   const VehicleState& v) {
  const int seg = m.current_segment(v.id);
  const auto [a, b] = m.graph().segment_ends(seg);
  return core::distance_to_segment(v.pos, m.graph().intersection_pos(a),
                                   m.graph().intersection_pos(b));
}

// The central property: at every tick, every vehicle's position lies on the
// segment the model claims it drives on — for a lattice and for an irregular
// imported-style graph.
TEST(GraphMobility, VehiclesStayOnEdges) {
  for (const bool lattice : {true, false}) {
    const auto graph =
        lattice ? std::make_shared<const map::RoadGraph>(5, 4, 150.0)
                : triangle_graph();
    GraphMobilityConfig cfg;
    cfg.replan_prob = 0.2;  // high churn stresses the path bookkeeping
    cfg.min_trip_m = 200.0;
    GraphMobilityModel m{graph, cfg};
    core::Rng rng{7};
    m.populate(30, rng);
    ASSERT_EQ(m.vehicles().size(), 30u);
    for (int tick = 0; tick < 400; ++tick) {
      m.step(0.1, rng);
      for (const auto& v : m.vehicles()) {
        ASSERT_LT(distance_to_current_segment(m, v), 1e-6)
            << "vehicle " << v.id << " left its road at tick " << tick;
        ASSERT_GT(v.speed, 0.0);
        ASSERT_NEAR(v.heading.norm(), 1.0, 1e-9);
      }
    }
  }
}

TEST(GraphMobility, StepIsDeterministicForEqualSeeds) {
  const auto graph = triangle_graph();
  auto run = [&](std::uint64_t seed) {
    GraphMobilityModel m{graph, GraphMobilityConfig{}};
    core::Rng rng{seed};
    m.populate(12, rng);
    for (int tick = 0; tick < 200; ++tick) m.step(0.1, rng);
    return std::vector<VehicleState>{m.vehicles().begin(), m.vehicles().end()};
  };
  const auto a = run(42), b = run(42), c = run(43);
  ASSERT_EQ(a.size(), b.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pos, b[i].pos) << i;
    EXPECT_EQ(a[i].heading, b[i].heading) << i;
    any_differs |= !(a[i].pos == c[i].pos);
  }
  EXPECT_TRUE(any_differs) << "different seeds should move differently";
}

TEST(GraphMobility, VehiclesMakeProgressAtTheirSpeed) {
  // On a long two-node line there is only one road; a vehicle must cover
  // speed * t metres of it (trips bounce between the endpoints).
  auto g = std::make_shared<map::RoadGraph>();
  g->add_intersection({0.0, 0.0});
  g->add_intersection({10000.0, 0.0});
  g->add_segment(0, 1);
  GraphMobilityModel m{g, GraphMobilityConfig{}};
  core::Rng rng{5};
  const VehicleId id = m.add_vehicle(0, 1, 20.0);
  for (int tick = 0; tick < 100; ++tick) m.step(0.1, rng);
  const auto& v = m.vehicles()[id];
  EXPECT_NEAR(v.pos.x, 20.0 * 10.0, 1e-6);  // 10 s at 20 m/s
  EXPECT_DOUBLE_EQ(v.pos.y, 0.0);
}

TEST(GraphMobility, CrossesSeveralIntersectionsInOneBigStep) {
  // dt large enough to traverse multiple short blocks in a single step.
  auto g = std::make_shared<const map::RoadGraph>(20, 1, 10.0);
  GraphMobilityConfig cfg;
  cfg.replan_prob = 0.0;
  GraphMobilityModel m{g, cfg};
  core::Rng rng{9};
  const VehicleId id = m.add_vehicle(0, 1, 15.0);
  m.step(2.0, rng);  // 30 m = three 10 m blocks
  const auto& v = m.vehicles()[id];
  EXPECT_LT(distance_to_current_segment(m, v), 1e-6);
  EXPECT_GT(v.pos.x, 0.0);
}

TEST(GraphMobility, RejectsDegenerateGraphs) {
  auto lonely = std::make_shared<map::RoadGraph>();
  lonely->add_intersection({0.0, 0.0});
  EXPECT_DEATH(
      (GraphMobilityModel{std::move(lonely), GraphMobilityConfig{}}),
      "at least two intersections");
  auto isolated = std::make_shared<map::RoadGraph>();
  isolated->add_intersection({0.0, 0.0});
  isolated->add_intersection({10.0, 0.0});
  isolated->add_intersection({20.0, 0.0});
  isolated->add_segment(0, 1);  // node 2 unreachable
  EXPECT_DEATH(
      (GraphMobilityModel{std::move(isolated), GraphMobilityConfig{}}),
      "isolated intersection");
}

// --- fault support: blocked segments (driven by sim::FaultPlan) ------------

TEST(GraphMobility, BlockedSegmentDrainsAndStaysAvoided) {
  // A single blocked segment never isolates a lattice intersection (degree
  // >= 2 everywhere), so after vehicles finish the edge they were already
  // driving, nobody may re-enter it — while the on-edge invariant holds
  // throughout.
  const auto graph = std::make_shared<const map::RoadGraph>(5, 4, 150.0);
  GraphMobilityConfig cfg;
  cfg.replan_prob = 0.2;
  cfg.min_trip_m = 200.0;
  GraphMobilityModel m{graph, cfg};
  core::Rng rng{7};
  m.populate(30, rng);

  const int blocked = 0;
  EXPECT_FALSE(m.segment_blocked(blocked));
  m.set_segment_blocked(blocked, true);
  EXPECT_TRUE(m.segment_blocked(blocked));
  m.set_segment_blocked(blocked, true);  // idempotent
  EXPECT_TRUE(m.segment_blocked(blocked));

  for (int tick = 0; tick < 600; ++tick) {
    m.step(0.1, rng);
    for (const auto& v : m.vehicles()) {
      ASSERT_LT(distance_to_current_segment(m, v), 1e-6)
          << "vehicle " << v.id << " left its road at tick " << tick;
    }
    if (tick >= 300) {
      // 30 s in: every pre-block traversal (150 m at >= 5 m/s) is long done.
      for (const auto& v : m.vehicles()) {
        ASSERT_NE(m.current_segment(v.id), blocked)
            << "vehicle " << v.id << " entered the blocked road at tick "
            << tick;
      }
    }
  }

  // Clearing restores the segment to the route planner.
  m.set_segment_blocked(blocked, false);
  EXPECT_FALSE(m.segment_blocked(blocked));
  for (int tick = 0; tick < 100; ++tick) {
    m.step(0.1, rng);
    for (const auto& v : m.vehicles()) {
      ASSERT_LT(distance_to_current_segment(m, v), 1e-6);
    }
  }
}

TEST(GraphMobility, BlockingDoesNotMoveOrTeleportVehicles) {
  const auto graph = triangle_graph();
  GraphMobilityModel m{graph, GraphMobilityConfig{}};
  core::Rng rng{11};
  m.populate(10, rng);
  std::vector<core::Vec2> before;
  for (const auto& v : m.vehicles()) before.push_back(v.pos);
  m.set_segment_blocked(1, true);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(m.vehicles()[i].pos.x, before[i].x);
    EXPECT_EQ(m.vehicles()[i].pos.y, before[i].y);
  }
  // One small step: everyone still on a road, nobody jumped.
  m.step(0.1, rng);
  for (std::size_t i = 0; i < before.size(); ++i) {
    const auto& v = m.vehicles()[i];
    ASSERT_LT(distance_to_current_segment(m, v), 1e-6);
    EXPECT_LT((v.pos - before[i]).norm(), 5.0);  // <= top speed * 0.1 s slack
  }
}

}  // namespace
}  // namespace vanet::mobility

// Geometry modes of the road-geometry protocols: kRoute must follow roads on
// irregular maps, and must reduce to the kLine decisions on lattice maps
// (the property the golden digests rely on).
#include <gtest/gtest.h>

#include <memory>

#include "map/builders.h"
#include "routing/geographic/grid_gateway.h"
#include "routing/geographic/zone.h"
#include "sim/scenario.h"
#include "util/line_fixture.h"

namespace vanet::testing {
namespace {

/// U-shaped road whose tips face each other across a roadless gap; the
/// straight tip→tip line crosses the gap, the road route goes around.
std::shared_ptr<const map::RoadGraph> u_road() {
  auto g = std::make_shared<map::RoadGraph>();
  g->add_intersection({0.0, 0.0});
  g->add_intersection({0.0, 1000.0});
  g->add_intersection({1000.0, 1000.0});
  g->add_intersection({1000.0, 0.0});
  g->add_segment(0, 1);
  g->add_segment(1, 2);
  g->add_segment(2, 3);
  return g;
}

/// src and dst at the U's tips; M sits in the roadless gap, ON the straight
/// line but 500 m from every road. Range 600: M is the only possible relay.
std::vector<VehicleSpec> gap_relay_topology() {
  return {
      {{0.0, 0.0}, {0.0, 0.0}},     // 0: src (west tip)
      {{1000.0, 0.0}, {0.0, 0.0}},  // 1: dst (east tip)
      {{500.0, 0.0}, {0.0, 0.0}},   // 2: M, mid-gap relay
  };
}

TEST(RoadGeometry, ZoneRouteCorridorDropsOffRoadRelays) {
  for (const auto mode :
       {sim::GeometryMode::kLine, sim::GeometryMode::kRoute}) {
    LineFixtureOptions opt;
    opt.range = 600.0;
    opt.road_graph = u_road();
    opt.geometry = mode;
    LineFixture f{"zone", gap_relay_topology(), opt};
    f.run_to(0.5);
    f.send(0, 1, /*seq=*/1);
    f.run_to(3.0);
    if (mode == sim::GeometryMode::kLine) {
      // Legacy corridor is the straight line; M is on it and relays.
      EXPECT_EQ(f.delivered_count(0, 1), 1u);
    } else {
      // Road corridor follows the U (500 m from M > 250 m half width): the
      // packet must not cut across the roadless gap.
      EXPECT_EQ(f.delivered_count(0, 1), 0u);
    }
  }
}

TEST(RoadGeometry, ZoneRouteForwardsAlongTheRoadRoute) {
  // Relays placed ON the U route: route mode must deliver around the bend
  // even though the relays are far from the straight src→dst line.
  LineFixtureOptions opt;
  opt.range = 600.0;
  opt.road_graph = u_road();
  opt.geometry = sim::GeometryMode::kRoute;
  LineFixture f{"zone",
                {{{0.0, 0.0}, {0.0, 0.0}},      // 0: src
                 {{1000.0, 0.0}, {0.0, 0.0}},   // 1: dst
                 {{0.0, 550.0}, {0.0, 0.0}},    // 2: west leg relay
                 {{200.0, 1000.0}, {0.0, 0.0}},  // 3: north-west relay
                 {{750.0, 1000.0}, {0.0, 0.0}},  // 4: north-east relay
                 {{1000.0, 500.0}, {0.0, 0.0}}},  // 5: east leg relay
                opt};
  f.run_to(0.5);
  f.send(0, 1, /*seq=*/1);
  f.run_to(4.0);
  EXPECT_EQ(f.delivered_count(0, 1), 1u);
  // A line-mode zone would have dropped these relays (550 m off the line),
  // and indeed must: same topology, legacy geometry.
  LineFixtureOptions line_opt = opt;
  line_opt.geometry = sim::GeometryMode::kLine;
  LineFixture line{"zone",
                   {{{0.0, 0.0}, {0.0, 0.0}},
                    {{1000.0, 0.0}, {0.0, 0.0}},
                    {{0.0, 550.0}, {0.0, 0.0}},
                    {{200.0, 1000.0}, {0.0, 0.0}},
                    {{750.0, 1000.0}, {0.0, 0.0}},
                    {{1000.0, 500.0}, {0.0, 0.0}}},
                   line_opt};
  line.run_to(0.5);
  line.send(0, 1, /*seq=*/1);
  line.run_to(4.0);
  EXPECT_EQ(line.delivered_count(0, 1), 0u);
}

TEST(RoadGeometry, GridRoadCellsElectOneGatewayPerStreet) {
  LineFixtureOptions opt;
  opt.range = 500.0;  // auto cell = 400 m: one road cell per U leg
  opt.road_graph = u_road();
  opt.geometry = sim::GeometryMode::kRoute;
  LineFixture f{"grid",
                {{{0.0, 450.0}, {0.0, 0.0}},   // 0: west leg, 50 m from anchor
                 {{0.0, 150.0}, {0.0, 0.0}},   // 1: west leg, 350 m from anchor
                 {{980.0, 480.0}, {0.0, 0.0}}},  // 2: east leg, own cell
                opt};
  f.run_to(3.0);  // let hello beacons populate the neighbor tables
  const auto gateway = [&](net::NodeId id) {
    return static_cast<routing::GridGatewayProtocol&>(*f.protocols[id])
        .is_gateway();
  };
  // Node 0 and 1 share the west-leg road cell (anchor (0,500)); 0 is closer
  // and wins. Node 2 is alone in the east-leg cell: gateway by default.
  EXPECT_TRUE(gateway(0));
  EXPECT_FALSE(gateway(1));
  EXPECT_TRUE(gateway(2));
}

TEST(RoadGeometry, GvGridRouteConfinesDiscoveryToRoads) {
  for (const auto mode :
       {sim::GeometryMode::kLine, sim::GeometryMode::kRoute}) {
    LineFixtureOptions opt;
    opt.range = 600.0;
    opt.road_graph = u_road();
    opt.geometry = mode;
    LineFixture f{"gvgrid", gap_relay_topology(), opt};
    f.run_to(2.0);
    f.send(0, 1, /*seq=*/1);
    f.run_to(8.0);
    if (mode == sim::GeometryMode::kLine) {
      // Unconfined discovery finds the 2-hop path through mid-gap M.
      EXPECT_EQ(f.delivered_count(0, 1), 1u);
    } else {
      // M is 500 m from the road route (> 400 m corridor): it refuses the
      // RREQ, and no on-road path exists — discovery must fail.
      EXPECT_EQ(f.delivered_count(0, 1), 0u);
    }
  }
}

// The reduction property behind the golden digests: on lattice maps every
// kRoute predicate defers to the legacy kLine code path, so the two modes
// make identical forward/drop/election decisions — verified here end-to-end
// via bit-identical scenario reports across protocols and seeds.
TEST(RoadGeometry, RouteModeReducesToLineModeOnLatticeMaps) {
  for (const char* protocol : {"zone", "grid", "gvgrid"}) {
    for (const std::uint64_t seed : {1ull, 7ull}) {
      sim::ScenarioReport reports[2];
      int i = 0;
      for (const auto mode :
           {sim::GeometryMode::kLine, sim::GeometryMode::kRoute}) {
        sim::ScenarioConfig cfg;
        cfg.seed = seed;
        cfg.duration_s = 8.0;
        cfg.mobility = sim::MobilityKind::kGraph;  // drives on the lattice map
        cfg.vehicles = 25;
        cfg.protocol = protocol;
        cfg.traffic.flows = 4;
        cfg.traffic.stop_s = 8.0;
        cfg.geometry = mode;
        sim::Scenario s{cfg};
        s.run();
        reports[i++] = s.report();
      }
      EXPECT_EQ(sim::report_digest(reports[0]), sim::report_digest(reports[1]))
          << protocol << " seed " << seed;
    }
  }
}

// Random placements on a lattice map: gateway election must agree between
// the modes for every node (the cell-membership half of the reduction).
TEST(RoadGeometry, LatticeGatewayElectionAgreesAcrossModes) {
  auto lattice = std::make_shared<map::RoadGraph>(5, 5, 200.0);
  core::Rng rng{99};
  for (int round = 0; round < 20; ++round) {
    std::vector<VehicleSpec> specs;
    for (int v = 0; v < 12; ++v) {
      specs.push_back({{rng.uniform(0.0, 800.0), rng.uniform(0.0, 800.0)},
                       {0.0, 0.0}});
    }
    LineFixtureOptions opt;
    opt.range = 250.0;
    opt.road_graph = lattice;
    opt.seed = 1000 + static_cast<std::uint64_t>(round);
    opt.geometry = sim::GeometryMode::kLine;
    LineFixture line{"grid", specs, opt};
    opt.geometry = sim::GeometryMode::kRoute;
    LineFixture route{"grid", specs, opt};
    line.run_to(2.5);
    route.run_to(2.5);
    for (std::size_t id = 0; id < specs.size(); ++id) {
      EXPECT_EQ(static_cast<routing::GridGatewayProtocol&>(*line.protocols[id])
                    .is_gateway(),
                static_cast<routing::GridGatewayProtocol&>(*route.protocols[id])
                    .is_gateway())
          << "round " << round << " node " << id;
    }
  }
}

}  // namespace
}  // namespace vanet::testing

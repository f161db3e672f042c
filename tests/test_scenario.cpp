#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "map/builders.h"
#include "map/segment_index.h"

namespace vanet::sim {
namespace {

ScenarioConfig small_highway(const std::string& protocol) {
  ScenarioConfig cfg;
  cfg.protocol = protocol;
  cfg.mobility = MobilityKind::kHighway;
  cfg.highway.length = 2000.0;
  cfg.vehicles_per_direction = 20;
  cfg.duration_s = 20.0;
  cfg.traffic.flows = 4;
  cfg.traffic.start_s = 2.0;
  cfg.traffic.stop_s = 15.0;
  cfg.traffic.min_pair_distance_m = 300.0;
  return cfg;
}

TEST(Scenario, SameSeedIsBitReproducible) {
  ScenarioConfig cfg = small_highway("aodv");
  cfg.seed = 5;
  Scenario a{cfg}, b{cfg};
  a.run();
  b.run();
  const auto ra = a.report();
  const auto rb = b.report();
  EXPECT_EQ(ra.delivered, rb.delivered);
  EXPECT_EQ(ra.originated, rb.originated);
  EXPECT_DOUBLE_EQ(ra.delay_ms_mean, rb.delay_ms_mean);
  EXPECT_EQ(ra.control_frames, rb.control_frames);
  EXPECT_EQ(a.simulator().events_dispatched(), b.simulator().events_dispatched());
}

TEST(Scenario, DifferentSeedsDiffer) {
  ScenarioConfig cfg = small_highway("aodv");
  cfg.seed = 1;
  Scenario a{cfg};
  cfg.seed = 2;
  Scenario b{cfg};
  a.run();
  b.run();
  EXPECT_NE(a.simulator().events_dispatched(), b.simulator().events_dispatched());
}

TEST(Scenario, ReportInvariants) {
  Scenario s{small_highway("greedy")};
  s.run();
  const auto r = s.report();
  EXPECT_GT(r.originated, 0u);
  EXPECT_LE(r.delivered, r.originated);
  EXPECT_GE(r.pdr, 0.0);
  EXPECT_LE(r.pdr, 1.0);
  EXPECT_GE(r.collision_fraction, 0.0);
  EXPECT_LE(r.collision_fraction, 1.0);
  EXPECT_EQ(r.protocol, "greedy");
}

TEST(Scenario, HelloOnlyWhenProtocolWantsIt) {
  Scenario flood{small_highway("flooding")};
  EXPECT_EQ(flood.hello(), nullptr);
  flood.run();
  EXPECT_EQ(flood.report().hello_frames, 0u);

  Scenario greedy{small_highway("greedy")};
  EXPECT_NE(greedy.hello(), nullptr);
  greedy.run();
  EXPECT_GT(greedy.report().hello_frames, 0u);
}

TEST(Scenario, RsusAreAppendedAfterVehicles) {
  ScenarioConfig cfg = small_highway("drr");
  cfg.rsu_count = 3;
  Scenario s{cfg};
  EXPECT_EQ(s.network().node_count(), s.vehicle_count() + 3);
  EXPECT_EQ(s.network().rsu_ids().size(), 3u);
  for (net::NodeId id : s.network().rsu_ids()) {
    EXPECT_GE(id, s.vehicle_count());
  }
  // RSUs are never traffic endpoints.
  s.run();
  for (const auto& flow : s.traffic().flows()) {
    EXPECT_LT(flow.src, s.vehicle_count());
    EXPECT_LT(flow.dst, s.vehicle_count());
  }
}

TEST(Scenario, ReachabilityOracleBoundsPdr) {
  ScenarioConfig cfg = small_highway("flooding");
  cfg.vehicles_per_direction = 40;  // dense: mostly connectable
  Scenario s{cfg};
  s.run();
  const auto r = s.report();
  EXPECT_GT(r.reachable_fraction, 0.5);
  // The oracle is an upper bound up to sampling noise: a protocol cannot
  // beat physics by much.
  EXPECT_LE(r.pdr, r.reachable_fraction + 0.25);

  ScenarioConfig off = cfg;
  off.sample_reachability = false;
  Scenario s2{off};
  s2.run();
  EXPECT_DOUBLE_EQ(s2.report().reachable_fraction, 0.0);
}

TEST(Scenario, ManhattanBuilds) {
  ScenarioConfig cfg;
  cfg.protocol = "car";
  cfg.mobility = MobilityKind::kManhattan;
  cfg.manhattan.streets_x = 4;
  cfg.manhattan.streets_y = 4;
  cfg.manhattan.block = 200.0;
  cfg.vehicles = 40;
  cfg.duration_s = 15.0;
  cfg.traffic.flows = 3;
  cfg.traffic.start_s = 2.0;
  cfg.traffic.stop_s = 12.0;
  Scenario s{cfg};
  s.run();
  EXPECT_GT(s.report().originated, 0u);
}

TEST(Scenario, ShadowingChannelRuns) {
  ScenarioConfig cfg = small_highway("rear");
  cfg.phy = PhyModel::kShadowing;
  Scenario s{cfg};
  s.run();
  const auto r = s.report();
  EXPECT_GT(r.originated, 0u);
  // With shadowing some receptions fade; the counter must be active.
  EXPECT_GT(s.network().counters().receptions_faded, 0u);
}

TEST(Scenario, BusCountDesignatesFerries) {
  ScenarioConfig cfg = small_highway("bus");
  cfg.bus_count = 4;
  Scenario s{cfg};
  s.run();
  EXPECT_GT(s.report().originated, 0u);
}

ScenarioConfig small_graph_scenario(const std::string& protocol) {
  ScenarioConfig cfg;
  cfg.protocol = protocol;
  cfg.mobility = MobilityKind::kGraph;
  cfg.manhattan.streets_x = 4;
  cfg.manhattan.streets_y = 4;
  cfg.manhattan.block = 200.0;
  cfg.vehicles = 40;
  cfg.duration_s = 15.0;
  cfg.traffic.flows = 3;
  cfg.traffic.start_s = 2.0;
  cfg.traffic.stop_s = 12.0;
  return cfg;
}

TEST(Scenario, GraphMobilityBuildsAndSharesTopology) {
  Scenario s{small_graph_scenario("car")};
  // The graph CAR routes over is the graph the vehicles drive on.
  const auto* model =
      dynamic_cast<const mobility::GraphMobilityModel*>(&s.mobility().model());
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(&model->graph(), &s.road_graph());
  s.run();
  EXPECT_GT(s.report().originated, 0u);
}

TEST(Scenario, GraphMobilityWithRsusPlacesThemInsideTheMap) {
  ScenarioConfig cfg = small_graph_scenario("drr");
  cfg.rsu_count = 4;
  Scenario s{cfg};
  const auto& g = s.road_graph();
  for (net::NodeId id : s.network().node_ids()) {
    const core::Vec2 p = s.network().position(id);
    EXPECT_GE(p.x, g.bbox_min().x - 1e-9);
    EXPECT_LE(p.x, g.bbox_max().x + 1e-9);
    EXPECT_GE(p.y, g.bbox_min().y - 1e-9);
    EXPECT_LE(p.y, g.bbox_max().y + 1e-9);
  }
  s.run();
  EXPECT_GT(s.report().originated, 0u);
}

TEST(Scenario, FileMapRunsEndToEndAcrossFamilies) {
  // The acceptance path: an imported (non-grid) map drives graph mobility and
  // both a probability-family and a geographic-family protocol route over it.
  map::RoadGraph g;
  g.add_intersection({0.0, 0.0});
  g.add_intersection({350.0, 80.0});
  g.add_intersection({700.0, 0.0});
  g.add_intersection({350.0, 420.0});
  g.add_intersection({900.0, 400.0});
  g.add_segment(0, 1);
  g.add_segment(1, 2);
  g.add_segment(1, 3);
  g.add_segment(3, 4);
  g.add_segment(2, 4);
  g.add_segment(0, 3);
  const std::string path = ::testing::TempDir() + "vanet_scenario_map.csv";
  map::save_edge_list_csv_file(g, path);

  for (const char* protocol : {"car", "greedy"}) {
    ScenarioConfig cfg = small_graph_scenario(protocol);
    cfg.map.source = MapSource::kFile;
    cfg.map.file = path;
    cfg.vehicles = 30;
    Scenario s{cfg};
    EXPECT_FALSE(s.road_graph().is_grid());
    EXPECT_EQ(s.road_graph().intersection_count(), 5);
    s.run();
    EXPECT_GT(s.report().originated, 0u) << protocol;
    EXPECT_GT(s.report().delivered, 0u) << protocol;
  }
  std::remove(path.c_str());
}

TEST(Scenario, TracePlaybackOverFileMapPlacesRsusInsideTheMap) {
  // A file map whose coordinates sit far from the origin: RSUs must land in
  // the map's extent even under trace mobility (not the default lattice's).
  map::RoadGraph g;
  g.add_intersection({5000.0, 2000.0});
  g.add_intersection({5600.0, 2000.0});
  g.add_intersection({5600.0, 2400.0});
  g.add_segment(0, 1);
  g.add_segment(1, 2);
  const std::string path = ::testing::TempDir() + "vanet_offset_map.csv";
  map::save_edge_list_csv_file(g, path);

  ScenarioConfig cfg;
  cfg.map.source = MapSource::kFile;
  cfg.map.file = path;
  cfg.mobility = MobilityKind::kTrace;
  for (mobility::VehicleId id : {0u, 1u}) {
    cfg.trace.add(id, {0.0, 5000.0 + 100.0 * id, 2000.0, 10.0, 0.0});
    cfg.trace.add(id, {10.0, 5200.0 + 100.0 * id, 2000.0, 10.0, 0.0});
  }
  cfg.rsu_count = 2;
  cfg.duration_s = 5.0;
  cfg.traffic.flows = 1;
  cfg.traffic.start_s = 1.0;
  cfg.traffic.stop_s = 4.0;
  Scenario s{cfg};
  for (net::NodeId id : s.network().rsu_ids()) {
    const core::Vec2 p = s.network().position(id);
    EXPECT_GE(p.x, 5000.0);
    EXPECT_LE(p.x, 5600.0);
    EXPECT_GE(p.y, 2000.0);
    EXPECT_LE(p.y, 2400.0);
  }
  std::remove(path.c_str());
}

TEST(Scenario, GeometryProtocolsRouteOverTheCommittedTownMap) {
  // The map-aware acceptance path: zone/grid/gvgrid with route geometry over
  // the committed irregular town, end to end. Zone (confined flooding) must
  // actually deliver; the gateway/discovery protocols must at least run and
  // originate on the same map.
  const std::string town = std::string{VANET_SOURCE_DIR} + "/maps/town.csv";
  std::uint64_t delivered = 0;
  for (const char* protocol : {"zone", "grid", "gvgrid"}) {
    ScenarioConfig cfg = small_graph_scenario(protocol);
    cfg.map.source = MapSource::kFile;
    cfg.map.file = town;
    cfg.vehicles = 50;
    cfg.zone_geometry = routing::GeometryMode::kRoute;
    cfg.grid_geometry = routing::GeometryMode::kRoute;
    cfg.gvgrid_geometry = routing::GeometryMode::kRoute;
    Scenario s{cfg};
    EXPECT_FALSE(s.road_graph().is_grid());
    s.run();
    EXPECT_GT(s.report().originated, 0u) << protocol;
    if (std::string{protocol} == "zone") {
      EXPECT_GT(s.report().delivered, 0u) << protocol;
    }
    delivered += s.report().delivered;
  }
  EXPECT_GT(delivered, 0u);
}

TEST(Scenario, TraceMapCouplingRejectsOffMapSamples) {
  map::RoadGraph g;  // one straight street along y = 0
  g.add_intersection({0.0, 0.0});
  g.add_intersection({1000.0, 0.0});
  g.add_segment(0, 1);
  const std::string path = ::testing::TempDir() + "vanet_coupling_map.csv";
  map::save_edge_list_csv_file(g, path);

  ScenarioConfig cfg;
  cfg.map.source = MapSource::kFile;
  cfg.map.file = path;
  cfg.mobility = MobilityKind::kTrace;
  cfg.duration_s = 5.0;
  cfg.traffic.flows = 1;
  cfg.trace.add(0, {0.0, 100.0, 0.0, 10.0, 0.0});
  cfg.trace.add(0, {5.0, 150.0, 4.0, 10.0, 0.0});  // 4 m off: within tolerance
  cfg.trace.add(1, {0.0, 300.0, 0.0, 10.0, 0.0});
  cfg.trace.add(1, {5.0, 300.0, 90.0, 10.0, 0.0});  // 90 m off the only street

  try {
    Scenario s{cfg};
    FAIL() << "off-map trace sample must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    // Names the vehicle, the sample, the offending distance and the knob.
    EXPECT_NE(msg.find("vehicle 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("90.0 m"), std::string::npos) << msg;
    EXPECT_NE(msg.find("map.trace_tolerance_m"), std::string::npos) << msg;
  }

  // Loosening the tolerance (or disabling it) accepts the same trace.
  cfg.map.trace_tolerance_m = 120.0;
  EXPECT_NO_THROW(Scenario{cfg});
  cfg.map.trace_tolerance_m = 0.0;
  EXPECT_NO_THROW(Scenario{cfg});
  std::remove(path.c_str());
}

TEST(Scenario, TraceMapCouplingNamesTheCsvLine) {
  map::RoadGraph g;
  g.add_intersection({0.0, 0.0});
  g.add_intersection({1000.0, 0.0});
  g.add_segment(0, 1);
  const std::string map_path = ::testing::TempDir() + "vanet_line_map.csv";
  map::save_edge_list_csv_file(g, map_path);
  const std::string trace_path = ::testing::TempDir() + "vanet_line_trace.csv";
  {
    std::ofstream out{trace_path};
    out << "# time,id,x,y,speed,angle\n";
    out << "0,0,100,0,10,0\n";
    out << "1,0,200,500,10,0\n";  // line 3: 500 m off the street
  }

  ScenarioConfig cfg;
  cfg.map.source = MapSource::kFile;
  cfg.map.file = map_path;
  cfg.mobility = MobilityKind::kTrace;
  cfg.duration_s = 2.0;
  cfg.trace = mobility::Trace::load_csv_file(trace_path);
  try {
    Scenario s{cfg};
    FAIL() << "off-map trace sample must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("trace csv line 3"), std::string::npos)
        << e.what();
  }
  std::remove(map_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(Scenario, GraphMobilityReportedSegmentsHonourTheProverContract) {
  // The density refresh under graph mobility trusts a vehicle's
  // MobilityModel::reported_segment unless the segment is flagged ambiguous,
  // so every such report must be exactly the SegmentIndex answer. Checked on
  // every tick, on the lattice and on the committed irregular town.
  for (const bool town : {false, true}) {
    ScenarioConfig cfg = small_graph_scenario("car");
    if (town) {
      cfg.map.source = MapSource::kFile;
      cfg.map.file = std::string{VANET_SOURCE_DIR} + "/maps/town.csv";
    }
    const std::shared_ptr<map::RoadGraph> graph = build_road_graph(cfg);
    const map::SegmentIndex index{*graph};
    const std::vector<bool> ambiguous =
        map::ambiguous_interior_segments(*graph);
    core::RngManager rngs{cfg.seed};
    const std::unique_ptr<mobility::MobilityModel> model =
        make_mobility_model(cfg, graph, rngs, nullptr);
    core::Rng& rng = rngs.stream("mobility");
    std::size_t trusted = 0;
    for (int tick = 0; tick < 200; ++tick) {
      const std::vector<mobility::VehicleState>& vs = model->vehicles();
      for (std::size_t i = 0; i < vs.size(); ++i) {
        const int seg = model->reported_segment(i);
        if (seg < 0 || ambiguous[static_cast<std::size_t>(seg)]) continue;
        ++trusted;
        ASSERT_EQ(seg, index.nearest_segment(vs[i].pos))
            << (town ? "town" : "lattice") << " tick " << tick << " vehicle "
            << vs[i].id;
      }
      model->step(cfg.mobility_tick_s, rng);
    }
    // The contract is only worth checking if the prover actually answers.
    EXPECT_GT(trusted, 0u) << (town ? "town" : "lattice");
  }
}

TEST(Scenario, FileMapRequiresGraphOrTraceMobility) {
  ScenarioConfig cfg = small_highway("aodv");
  cfg.map.source = MapSource::kFile;
  cfg.map.file = "does-not-matter.csv";
  EXPECT_THROW((Scenario{cfg}), std::invalid_argument);  // highway mobility
  cfg.mobility = MobilityKind::kGraph;
  cfg.map.file.clear();
  EXPECT_THROW((Scenario{cfg}), std::invalid_argument);  // no map.file
}

}  // namespace
}  // namespace vanet::sim

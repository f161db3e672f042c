// Custom-map workflow: build an irregular road network with the map
// subsystem, round-trip it through the edge-list CSV schema, and route three
// protocol families over it with graph-constrained mobility — the vehicles
// drive on exactly the graph the routing layer reasons about, including a
// geometry protocol (zone) whose corridors follow the road route
// (`zone.geometry=route`) instead of the straight source→destination line.
//
// The same CSV path accepts converted real road networks:
//   ./build/vanet_cli run --set map.source=file --set map.file=maps/town.csv
//       --protocols car,greedy,zone --set zone.geometry=route
//
//   ./build/example_custom_map
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "map/builders.h"
#include "sim/scenario.h"
#include "sim/table.h"

int main() {
  using namespace vanet;

  // 1. A small town that no lattice can express: a kite-shaped ring road,
  //    a diagonal high street and a spur to an outlying neighbourhood.
  map::RoadGraph town;
  town.add_intersection({0.0, 0.0});       // 0: west gate
  town.add_intersection({600.0, -150.0});  // 1: south ring
  town.add_intersection({1200.0, 0.0});    // 2: east gate
  town.add_intersection({600.0, 450.0});   // 3: north ring
  town.add_intersection({600.0, 150.0});   // 4: market square
  town.add_intersection({1500.0, 350.0});  // 5: outlying neighbourhood
  town.add_segment(0, 1);  // ring road
  town.add_segment(1, 2);
  town.add_segment(2, 3);
  town.add_segment(3, 0);
  town.add_segment(0, 4);  // high street through the market
  town.add_segment(4, 2);
  town.add_segment(3, 4);
  town.add_segment(2, 5);  // spur
  std::cout << "# Custom map: " << town.intersection_count()
            << " intersections, " << town.segment_count() << " segments, "
            << sim::fmt(town.total_length() / 1000.0, 2) << " km of road\n";

  // 2. CSV round-trip — the same schema an imported real map would use.
  const auto path = std::filesystem::temp_directory_path() / "vanet_town.csv";
  map::save_edge_list_csv_file(town, path.string());
  std::cout << "wrote + reloading " << path << "\n\n";

  // 3. Drive 50 vehicles over the reloaded map and compare a probability-
  //    family protocol (CAR: anchor paths over the road graph), a geographic
  //    protocol (greedy forwarding), and a geometry protocol whose corridor
  //    follows the road route (zone with `zone.geometry=route`) — all on
  //    identical topology, with per-protocol delivery counts.
  sim::Table table(
      {"protocol", "family", "geometry", "PDR", "delay ms", "hops",
       "delivered/originated"});
  for (const char* protocol : {"car", "greedy", "zone"}) {
    sim::ScenarioConfig cfg;
    cfg.map.source = sim::MapSource::kFile;
    cfg.map.file = path.string();
    cfg.mobility = sim::MobilityKind::kGraph;
    cfg.vehicles = 50;
    cfg.graph.replan_prob = 0.1;
    cfg.protocol = protocol;
    // Zone flooding stays on streets that lead to the destination: corridors
    // are road routes (map::RouteCorridor), not straight lines across blocks.
    cfg.zone_geometry = routing::GeometryMode::kRoute;
    cfg.duration_s = 60.0;
    cfg.traffic.flows = 8;
    cfg.traffic.rate_pps = 1.0;
    cfg.traffic.start_s = 5.0;
    cfg.traffic.stop_s = 50.0;
    cfg.seed = 11;
    sim::Scenario s{cfg};
    s.run();
    const auto r = s.report();
    const bool road_geometry = std::string(protocol) == "zone";
    table.add_row({std::string(protocol),
                   std::string(routing::to_string(
                       routing::ProtocolRegistry::find(protocol)->category)),
                   road_geometry ? "route" : "-", sim::fmt(r.pdr, 3),
                   sim::fmt(r.delay_ms_mean, 1), sim::fmt(r.hops_mean, 2),
                   std::to_string(r.delivered) + " / " +
                       std::to_string(r.originated)});
  }
  table.print(std::cout);
  std::cout << "\nAll rows ran on the reloaded CSV map; CAR's anchor paths, "
               "the density oracle and zone's route corridors used the same "
               "RoadGraph instance the vehicles drove on.\n";
  std::filesystem::remove(path);
  return 0;
}

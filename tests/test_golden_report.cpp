// Fixed-seed determinism lock: ScenarioReport digests for a set of pinned
// configurations must match the committed reference in
// tests/golden/report_digests.txt.
//
// This is the guard that lets hot-path refactors proceed safely: any change
// to RNG draw order, channel semantics, candidate sets or float evaluation
// shows up here as a digest mismatch. If a *deliberate* physics change is
// made, regenerate the reference with:
//   VANET_UPDATE_GOLDEN=1 ./vanet_tests --gtest_filter='GoldenReport.*'
// and commit the diff with an explanation of why the physics moved.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "sim/scenario.h"

#ifndef VANET_SOURCE_DIR
#error "VANET_SOURCE_DIR must point at the repository root"
#endif

namespace vanet::sim {
namespace {

std::string golden_path() {
  return std::string{VANET_SOURCE_DIR} + "/tests/golden/report_digests.txt";
}

std::map<std::string, ScenarioConfig> golden_configs() {
  std::map<std::string, ScenarioConfig> configs;
  {
    ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.duration_s = 15.0;
    cfg.mobility = MobilityKind::kHighway;
    cfg.vehicles_per_direction = 12;
    cfg.rsu_count = 2;
    cfg.protocol = "aodv";
    cfg.traffic.stop_s = 15.0;
    configs["highway-aodv-rsu"] = cfg;
  }
  {
    ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.duration_s = 15.0;
    cfg.mobility = MobilityKind::kManhattan;
    cfg.vehicles = 30;
    cfg.phy = PhyModel::kShadowing;
    cfg.protocol = "greedy";
    cfg.traffic.stop_s = 15.0;
    configs["manhattan-greedy-shadowing"] = cfg;
  }
  {
    ScenarioConfig cfg;
    cfg.seed = 1337;
    cfg.duration_s = 15.0;
    cfg.mobility = MobilityKind::kManhattan;
    cfg.vehicles = 30;
    cfg.protocol = "yan";
    cfg.traffic.stop_s = 15.0;
    configs["manhattan-yan"] = cfg;
  }
  {
    // Graph-constrained mobility with the protocol that routes over the same
    // graph: pins the map subsystem (trip planning, density via the segment
    // index, CAR anchor paths) exactly like the other kinds pin theirs.
    ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.duration_s = 15.0;
    cfg.mobility = MobilityKind::kGraph;
    cfg.vehicles = 30;
    cfg.protocol = "car";
    cfg.traffic.stop_s = 15.0;
    configs["graph-car"] = cfg;
  }
  {
    // Map-aware geometry on an imported non-lattice map: zone with route
    // corridors over the committed town — pins RouteCorridor construction,
    // the corridor cache refresh rule and the kRoute forwarding decisions.
    ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.duration_s = 15.0;
    cfg.map.source = MapSource::kFile;
    cfg.map.file = std::string{VANET_SOURCE_DIR} + "/maps/town.csv";
    cfg.mobility = MobilityKind::kGraph;
    cfg.vehicles = 30;
    cfg.protocol = "zone";
    cfg.zone_geometry = routing::GeometryMode::kRoute;
    cfg.traffic.stop_s = 15.0;
    configs["town-zone-route"] = cfg;
  }
  {
    // The gvgrid route-geometry hot path on the same town: pins the
    // memoized link-lifetime integral, the segment snapshot with its
    // mobility prover, and the corridor pre-reject together.
    ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.duration_s = 15.0;
    cfg.map.source = MapSource::kFile;
    cfg.map.file = std::string{VANET_SOURCE_DIR} + "/maps/town.csv";
    cfg.mobility = MobilityKind::kGraph;
    cfg.vehicles = 30;
    cfg.protocol = "gvgrid";
    cfg.gvgrid_geometry = routing::GeometryMode::kRoute;
    cfg.traffic.stop_s = 15.0;
    configs["town-gvgrid-route"] = cfg;
  }
  {
    // CAR on the irregular town: its 1 Hz density refresh goes through the
    // mobility prover and the ambiguous-segment veto, which the lattice
    // (graph-car) never exercises because no lattice segment is ambiguous.
    ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.duration_s = 15.0;
    cfg.map.source = MapSource::kFile;
    cfg.map.file = std::string{VANET_SOURCE_DIR} + "/maps/town.csv";
    cfg.mobility = MobilityKind::kGraph;
    cfg.vehicles = 30;
    cfg.protocol = "car";
    cfg.traffic.stop_s = 15.0;
    configs["town-car"] = cfg;
  }
  {
    // Nakagami-m fast fading (phy.model=nakagami): pins the Gamma-tail
    // receipt probability and its bracketing of nominal/max range.
    ScenarioConfig cfg;
    cfg.seed = 1337;
    cfg.duration_s = 15.0;
    cfg.mobility = MobilityKind::kManhattan;
    cfg.vehicles = 30;
    cfg.phy = PhyModel::kNakagami;
    cfg.protocol = "yan";
    cfg.traffic.stop_s = 15.0;
    configs["manhattan-yan-nakagami"] = cfg;
  }
  {
    // Link-quality routing under fast fading: pins the ETX estimator (hello
    // sequence numbers, windowed ratios, piggybacked reports + distance
    // vector), the Dijkstra route computation and the linkquality report
    // fields (etx_link_* / suppressed_rebroadcasts).
    ScenarioConfig cfg;
    cfg.seed = 1337;
    cfg.duration_s = 15.0;
    cfg.mobility = MobilityKind::kManhattan;
    cfg.vehicles = 30;
    cfg.phy = PhyModel::kNakagami;
    cfg.protocol = "etx";
    cfg.traffic.stop_s = 15.0;
    configs["manhattan-etx-nakagami"] = cfg;
  }
  {
    // The same etx stack over an imported non-lattice map with the unit
    // disk: pins the estimator's no-loss degenerate case (every ratio 1,
    // Dijkstra reduces to hop count) where any accidental RNG draw or
    // piggyback byte change would still move the digest.
    ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.duration_s = 15.0;
    cfg.map.source = MapSource::kFile;
    cfg.map.file = std::string{VANET_SOURCE_DIR} + "/maps/town.csv";
    cfg.mobility = MobilityKind::kGraph;
    cfg.vehicles = 30;
    cfg.protocol = "etx";
    cfg.traffic.stop_s = 15.0;
    configs["town-etx"] = cfg;
  }
  {
    // Full fault stack on an imported map: planned node outage + road
    // incident + seeded vehicle churn over graph mobility. Pins the "fault"
    // RNG stream, the blocked-segment replanner, the down-node MAC path and
    // the fault-classified metrics (the fault_* report fields).
    ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.duration_s = 15.0;
    cfg.map.source = MapSource::kFile;
    cfg.map.file = std::string{VANET_SOURCE_DIR} + "/maps/town.csv";
    cfg.mobility = MobilityKind::kGraph;
    cfg.vehicles = 30;
    cfg.protocol = "aodv";
    cfg.fault.enabled = true;
    cfg.fault.plan = "node:2:3:9; seg:1:4:11";
    cfg.fault.vehicle_mtbf_s = 30.0;
    cfg.fault.vehicle_downtime_s = 4.0;
    cfg.traffic.stop_s = 15.0;
    configs["town-churn-incident"] = cfg;
  }
  {
    // Faults on a lossy channel: shadowing + churn (vehicles and the RSUs).
    // Pins the interaction of fading draws with down-node receptions.
    ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.duration_s = 15.0;
    cfg.mobility = MobilityKind::kManhattan;
    cfg.vehicles = 30;
    cfg.rsu_count = 2;
    cfg.phy = PhyModel::kShadowing;
    cfg.protocol = "greedy";
    cfg.fault.enabled = true;
    cfg.fault.vehicle_mtbf_s = 25.0;
    cfg.fault.vehicle_downtime_s = 5.0;
    cfg.fault.rsu_mtbf_s = 40.0;
    cfg.fault.rsu_downtime_s = 6.0;
    cfg.traffic.stop_s = 15.0;
    configs["manhattan-shadowing-fault"] = cfg;
  }
  return configs;
}

std::map<std::string, std::string> load_reference() {
  std::map<std::string, std::string> ref;
  std::ifstream in{golden_path()};
  std::string name, digest;
  while (in >> name >> digest) ref[name] = digest;
  return ref;
}

TEST(GoldenReport, FixedSeedDigestsMatchCommittedReference) {
  std::map<std::string, std::string> actual;
  for (const auto& [name, cfg] : golden_configs()) {
    Scenario scenario{cfg};
    scenario.run();
    actual[name] = report_digest(scenario.report());
  }

  if (std::getenv("VANET_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{golden_path()};
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    for (const auto& [name, digest] : actual) {
      out << name << " " << digest << "\n";
    }
    GTEST_SKIP() << "golden reference regenerated at " << golden_path();
  }

  const std::map<std::string, std::string> reference = load_reference();
  ASSERT_FALSE(reference.empty())
      << "missing or empty golden reference " << golden_path();
  EXPECT_EQ(actual.size(), reference.size());
  for (const auto& [name, digest] : actual) {
    const auto it = reference.find(name);
    ASSERT_NE(it, reference.end()) << "no reference digest for " << name;
    EXPECT_EQ(digest, it->second)
        << "fixed-seed ScenarioReport changed for '" << name
        << "' — a perf refactor must not change physics. If the change is "
           "deliberate, rerun with VANET_UPDATE_GOLDEN=1 and commit.";
  }
}

// The digest itself must be stable (pure function of the report) and
// sensitive to any field.
TEST(GoldenReport, DigestIsPureAndFieldSensitive) {
  ScenarioReport r;
  r.protocol = "aodv";
  r.pdr = 0.5;
  const std::string d1 = report_digest(r);
  EXPECT_EQ(d1, report_digest(r));
  r.receptions_ok = 1;
  EXPECT_NE(report_digest(r), d1);
  r.receptions_ok = 0;
  r.pdr = 0.5000000000000001;  // one ulp-ish nudge must change the digest
  EXPECT_NE(report_digest(r), d1);
}

}  // namespace
}  // namespace vanet::sim

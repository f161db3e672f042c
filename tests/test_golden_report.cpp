// Fixed-seed determinism lock: ScenarioReport digests for a set of pinned
// configurations must match the committed reference in
// tests/golden/report_digests.txt.
//
// This is the guard that lets hot-path refactors proceed safely: any change
// to RNG draw order, channel semantics, candidate sets or float evaluation
// shows up here as a digest mismatch. Next to each digest,
// tests/golden/report_canonical.txt holds the row's canonical report, so a
// mismatch names every field that moved with its old and new value. If a
// *deliberate* physics change is made, regenerate both files with:
//   VANET_UPDATE_GOLDEN=1 ./vanet_tests --gtest_filter='GoldenReport.*'
// and commit the diff with an explanation of why the physics moved.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "routing/registry.h"
#include "sim/scenario.h"

#ifndef VANET_SOURCE_DIR
#error "VANET_SOURCE_DIR must point at the repository root"
#endif

namespace vanet::sim {
namespace {

std::string golden_path() {
  return std::string{VANET_SOURCE_DIR} + "/tests/golden/report_digests.txt";
}

std::string canonical_path() {
  return std::string{VANET_SOURCE_DIR} + "/tests/golden/report_canonical.txt";
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
    // Table I's congested highway (4 km, 70 vehicles per direction, IDM
    // desired speed 12 m/s), shortened: dense neighbor tables where Yan's
    // probe ranking spends its link-lifetime integrals, and where forward
    // candidates almost always exist so sideways neighbors go unscored.
    ScenarioConfig cfg;
    cfg.seed = 1337;
    cfg.duration_s = 20.0;
    cfg.mobility = MobilityKind::kHighway;
    cfg.highway.length = 4000.0;
    cfg.highway.idm.desired_speed = 12.0;
    cfg.vehicles_per_direction = 70;
    cfg.protocol = "yan";
    cfg.traffic.flows = 8;
    cfg.traffic.rate_pps = 1.0;
    cfg.traffic.stop_s = 20.0;
    cfg.traffic.min_pair_distance_m = 700.0;
    configs["highway-yan-congested"] = cfg;
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
    cfg.geometry = sim::GeometryMode::kRoute;
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
    cfg.geometry = sim::GeometryMode::kRoute;
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
    // ETX under vehicle churn (unit disk, so routes form and break): crashed
    // neighbors expire, so receivers drop their links and release their
    // adverts, originate route invalidations and refuse stale adverts
    // against them until the destination's own sequence moves past the kill.
    ScenarioConfig cfg;
    cfg.seed = 7;
    cfg.duration_s = 20.0;
    cfg.mobility = MobilityKind::kManhattan;
    cfg.vehicles = 30;
    cfg.protocol = "etx";
    cfg.fault.vehicle_mtbf_s = 20.0;
    cfg.fault.vehicle_downtime_s = 4.0;
    cfg.traffic.stop_s = 20.0;
    configs["manhattan-etx-churn"] = cfg;
  }
  {
    // Flooding with ETX-ordered suppression: the same agent, reached
    // through flooding's attach() wiring, orders rebroadcast deferrals by
    // its Dijkstra distance to the packet's origin.
    ScenarioConfig cfg;
    cfg.seed = 7;
    cfg.duration_s = 15.0;
    cfg.mobility = MobilityKind::kManhattan;
    cfg.vehicles = 30;
    cfg.phy = PhyModel::kNakagami;
    cfg.protocol = "flooding";
    cfg.flood_suppression = routing::FloodSuppression::kEtx;
    cfg.traffic.stop_s = 15.0;
    configs["manhattan-flooding-etx"] = cfg;
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
    cfg.fault.vehicle_mtbf_s = 25.0;
    cfg.fault.vehicle_downtime_s = 5.0;
    cfg.fault.rsu_mtbf_s = 40.0;
    cfg.fault.rsu_downtime_s = 6.0;
    cfg.traffic.stop_s = 15.0;
    configs["manhattan-shadowing-fault"] = cfg;
  }
  // One short Manhattan row for every protocol the rows above leave out,
  // plain flooding (no flood.suppression) among them. RSUs and buses are
  // on, so drr crosses its wired backbone and bus hands packets to ferries.
  for (const char* name :
       {"flooding", "biswas", "dsr", "dsdv", "pbr", "taleb", "abedi", "wedde",
        "drr", "bus", "grid", "rover", "rear", "niude", "yan-ss"}) {
    ScenarioConfig cfg;
    cfg.seed = 11;
    cfg.duration_s = 12.0;
    cfg.mobility = MobilityKind::kManhattan;
    cfg.vehicles = 40;
    cfg.rsu_count = 4;
    cfg.bus_count = 4;
    cfg.protocol = name;
    cfg.traffic.stop_s = 12.0;
    configs[std::string{"manhattan-infra-"} + name] = cfg;
  }
  return configs;
}

/// One pinned row: its digest and the canonical report it hashes.
struct GoldenRow {
  std::string digest;
  std::string canonical;
};

/// Both reference files, joined by row name. The canonical file holds one
/// `[name]` header per row followed by that row's canonical report lines.
std::map<std::string, GoldenRow> load_reference() {
  std::map<std::string, GoldenRow> ref;
  std::ifstream digests{golden_path()};
  std::string name, digest;
  while (digests >> name >> digest) ref[name].digest = digest;
  std::ifstream canonical{canonical_path()};
  std::string line;
  GoldenRow* row = nullptr;
  while (std::getline(canonical, line)) {
    if (line.size() > 2 && line.front() == '[' && line.back() == ']') {
      row = &ref[line.substr(1, line.size() - 2)];
    } else if (row != nullptr) {
      row->canonical += line + "\n";
    }
  }
  return ref;
}

void write_reference(const std::map<std::string, GoldenRow>& rows) {
  std::ofstream digests{golden_path()};
  std::ofstream canonical{canonical_path()};
  ASSERT_TRUE(digests) << "cannot write " << golden_path();
  ASSERT_TRUE(canonical) << "cannot write " << canonical_path();
  for (const auto& [name, row] : rows) {
    digests << name << " " << row.digest << "\n";
    canonical << "[" << name << "]\n" << row.canonical;
  }
}

/// `name=value` lines of a canonical report, in order.
std::vector<std::pair<std::string, std::string>> report_fields(
    const std::string& canonical) {
  std::vector<std::pair<std::string, std::string>> fields;
  std::istringstream in{canonical};
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    fields.emplace_back(line.substr(0, eq), line.substr(eq + 1));
  }
  return fields;
}

/// A hexfloat value in decimal as well ("0x1.8p-1 (0.75)"); integers and
/// strings as they are.
std::string with_decimal(const std::string& value) {
  if (value.rfind("0x", 0) != 0 && value.rfind("-0x", 0) != 0) return value;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::strtod(value.c_str(), nullptr));
  return std::string{buf} + " (" + value + ")";
}

/// One line per field whose value differs between two canonical reports,
/// including a field present in only one of them.
std::string moved_fields(const std::string& before, const std::string& after) {
  const auto old_fields = report_fields(before);
  const auto new_fields = report_fields(after);
  const std::map<std::string, std::string> old_map(old_fields.begin(),
                                                   old_fields.end());
  const std::map<std::string, std::string> new_map(new_fields.begin(),
                                                   new_fields.end());
  std::string out;
  const auto line = [&out](const std::string& key, const std::string& was,
                           const std::string& now) {
    out += "  " + key + ": " + was + " -> " + now + "\n";
  };
  for (const auto& [key, value] : new_fields) {
    const auto it = old_map.find(key);
    const std::string was = it == old_map.end() ? "(absent)" : it->second;
    if (was != value) line(key, with_decimal(was), with_decimal(value));
  }
  for (const auto& [key, value] : old_fields) {
    if (!new_map.contains(key)) line(key, with_decimal(value), "(absent)");
  }
  return out;
}

TEST(GoldenReport, FixedSeedDigestsMatchCommittedReference) {
  std::map<std::string, GoldenRow> actual;
  for (const auto& [name, cfg] : golden_configs()) {
    Scenario scenario{cfg};
    scenario.run();
    const ScenarioReport report = scenario.report();
    actual[name] = {report_digest(report), canonical_report_string(report)};
  }

  if (std::getenv("VANET_UPDATE_GOLDEN") != nullptr) {
    write_reference(actual);
    GTEST_SKIP() << "golden reference regenerated at " << golden_path()
                 << " and " << canonical_path();
  }

  const std::map<std::string, GoldenRow> reference = load_reference();
  ASSERT_FALSE(reference.empty())
      << "missing or empty golden reference " << golden_path();
  EXPECT_EQ(actual.size(), reference.size());
  for (const auto& [name, row] : actual) {
    const auto it = reference.find(name);
    ASSERT_NE(it, reference.end()) << "no reference digest for " << name;
    EXPECT_EQ(row.digest, it->second.digest)
        << "fixed-seed ScenarioReport changed for '" << name
        << "' — a perf refactor must not change physics. If the change is "
           "deliberate, rerun with VANET_UPDATE_GOLDEN=1 and commit. Moved "
           "fields (committed -> now):\n"
        << moved_fields(it->second.canonical, row.canonical);
  }
}

// The committed explanation must be the committed check: every stored
// canonical report hashes to its row's stored digest.
TEST(GoldenReport, StoredReportsHashToStoredDigests) {
  const std::map<std::string, GoldenRow> reference = load_reference();
  ASSERT_FALSE(reference.empty());
  for (const auto& [name, row] : reference) {
    EXPECT_FALSE(row.digest.empty()) << "no digest for " << name;
    EXPECT_FALSE(row.canonical.empty()) << "no canonical report for " << name;
    EXPECT_EQ(canonical_digest(row.canonical), row.digest) << name;
  }
}

TEST(GoldenReport, MovedFieldsNameEveryChangedValue) {
  ScenarioReport before;
  before.protocol = "aodv";
  before.pdr = 0.5;
  before.delivered = 10;
  ScenarioReport after = before;
  after.pdr = 0.75;
  after.delivered = 12;
  after.linkquality = LinkQualityReport{};
  const std::string moved = moved_fields(canonical_report_string(before),
                                         canonical_report_string(after));
  EXPECT_NE(moved.find("  pdr: 0.5 (0x1p-1) -> 0.75 (0x1.8p-1)\n"),
            std::string::npos)
      << moved;
  EXPECT_NE(moved.find("  delivered: 10 -> 12\n"), std::string::npos) << moved;
  EXPECT_NE(moved.find("  suppressed_rebroadcasts: (absent) -> 0\n"),
            std::string::npos)
      << moved;
  EXPECT_EQ(moved.find("originated"), std::string::npos) << moved;
  EXPECT_TRUE(moved_fields(canonical_report_string(before),
                           canonical_report_string(before))
                  .empty());
}

// A protocol without a row could change its results unnoticed.
TEST(GoldenReport, EveryRegisteredProtocolIsPinned) {
  std::set<std::string> pinned;
  for (const auto& [name, cfg] : golden_configs()) pinned.insert(cfg.protocol);
  for (const routing::ProtocolInfo& info : routing::ProtocolRegistry::all()) {
    EXPECT_TRUE(pinned.contains(std::string{info.name}))
        << "no golden row runs protocol '" << info.name << "'";
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

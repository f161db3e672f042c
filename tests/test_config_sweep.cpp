// Boundary sweep over the whole config registry: every key of config_keys()
// takes each hostile value under a tiny scenario that reads it. Each run must
// end as a success, a config_set rejection naming the key, or an
// "exception" failure row naming the key; never a process abort or a hang
// (ctest's timeout turns a hang into a failure).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/config_kv.h"
#include "sim/experiment.h"

namespace vanet::sim {
namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// A two-second micro scenario whose code path reads `key`.
ScenarioConfig base_for(const std::string& key) {
  ScenarioConfig cfg;
  cfg.highway.length = 1000.0;
  cfg.vehicles_per_direction = 6;
  cfg.duration_s = 2.0;
  cfg.traffic.flows = 2;
  cfg.traffic.start_s = 0.2;
  cfg.traffic.stop_s = 1.8;
  const auto urban = [&cfg](MobilityKind kind) {
    cfg.mobility = kind;
    cfg.manhattan.streets_x = 4;
    cfg.manhattan.streets_y = 4;
    cfg.manhattan.block = 200.0;
    cfg.vehicles = 12;
  };
  if (starts_with(key, "manhattan.")) urban(MobilityKind::kManhattan);
  if (starts_with(key, "graph.")) urban(MobilityKind::kGraph);
  if (starts_with(key, "map.")) {
    urban(MobilityKind::kGraph);
    cfg.map.source = MapSource::kFile;
    cfg.map.file = std::string{VANET_SOURCE_DIR} + "/maps/town.csv";
  }
  if (key == "yan_tickets") cfg.protocol = "yan";
  if (key == "car_cell_m") cfg.protocol = "car";
  if (starts_with(key, "flood.")) cfg.protocol = "flooding";
  if (starts_with(key, "hello.")) cfg.protocol = "greedy";
  if (key == "geometry") {
    urban(MobilityKind::kGraph);
    cfg.protocol = "zone";
  }
  if (starts_with(key, "signal.")) cfg.phy = PhyModel::kShadowing;
  if (key == "phy.nakagami_m") cfg.phy = PhyModel::kNakagami;
  if (starts_with(key, "net.")) cfg.rsu_count = 2;  // backbone frames
  if (starts_with(key, "fault.")) {
    cfg.rsu_count = 1;
    cfg.fault.plan = "node:0:0.5:1.5";
    cfg.fault.vehicle_mtbf_s = 5.0;
    cfg.fault.rsu_mtbf_s = 5.0;
  }
  return cfg;
}

TEST(ConfigSweep, EveryKeyTakesHostileValuesWithoutAborting) {
  std::size_t runs = 0;
  for (const std::string& key : config_keys()) {
    for (const char* value : {"0", "-1", "1e9", "1e308", "nan", "", "x"}) {
      const std::string label = key + "=" + value;
      ExperimentSpec spec;
      spec.base = base_for(key);
      try {
        config_set(spec.base, key, value);
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find(key), std::string::npos)
            << label << ": " << e.what();
        continue;
      }
      spec.seeds = {1};
      spec.guards.max_events = 300'000;
      spec.guards.timeout_s = 20.0;
      const ExperimentResult result = ExperimentEngine{1}.run(spec);
      ++runs;
      if (result.failures.empty()) continue;
      // No accepted value is so large that the run outlasts its budget.
      const FailureRecord& f = result.failures.front();
      EXPECT_EQ(f.kind, "exception") << label << ": " << f.error;
      EXPECT_NE(f.error.find(key), std::string::npos)
          << label << ": " << f.error;
    }
  }
  // The sweep must actually run scenarios, not only collect rejections.
  EXPECT_GT(runs, config_keys().size());
}

}  // namespace
}  // namespace vanet::sim

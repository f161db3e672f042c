#include "sim/config_kv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace vanet::sim {
namespace {

TEST(ConfigKv, KeysAreNonEmptyAndUnique) {
  const auto& keys = config_keys();
  ASSERT_FALSE(keys.empty());
  std::set<std::string> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
  for (const auto& key : keys) EXPECT_TRUE(config_has_key(key)) << key;
  EXPECT_FALSE(config_has_key("no.such.key"));
}

TEST(ConfigKv, CoversNestedBlocks) {
  // The kv layer must reach every nested config block, not just top-level
  // scalars.
  for (const char* key :
       {"traffic.flows", "hello.interval_s", "highway.idm.desired_speed",
        "manhattan.block", "net.bitrate_bps", "signal.rx_threshold_dbm"}) {
    EXPECT_TRUE(config_has_key(key)) << key;
  }
}

TEST(ConfigKv, GetReflectsSet) {
  ScenarioConfig cfg;
  config_set(cfg, "duration_s", "123.5");
  EXPECT_DOUBLE_EQ(cfg.duration_s, 123.5);
  EXPECT_EQ(config_get(cfg, "duration_s"), "123.5");

  config_set(cfg, "traffic.flows", "17");
  EXPECT_EQ(cfg.traffic.flows, 17);

  config_set(cfg, "phy.model", "shadowing");
  EXPECT_EQ(cfg.phy, PhyModel::kShadowing);
  config_set(cfg, "phy.model", "unitdisk");
  EXPECT_EQ(cfg.phy, PhyModel::kUnitDisk);

  config_set(cfg, "mobility", "manhattan");
  EXPECT_EQ(cfg.mobility, MobilityKind::kManhattan);
  EXPECT_EQ(config_get(cfg, "mobility"), "manhattan");
  config_set(cfg, "mobility", "trace");
  EXPECT_EQ(cfg.mobility, MobilityKind::kTrace);

  config_set(cfg, "protocol", "yan");
  EXPECT_EQ(cfg.protocol, "yan");

  config_set(cfg, "hello.interval_s", "0.5");
  EXPECT_EQ(cfg.hello.interval, core::SimTime::seconds(0.5));
  EXPECT_EQ(config_get(cfg, "hello.interval_s"), "0.5");

  config_set(cfg, "highway.idm.desired_speed", "22.5");
  EXPECT_DOUBLE_EQ(cfg.highway.idm.desired_speed, 22.5);
}

TEST(ConfigKv, VehiclesAliasSetsBothPopulations) {
  ScenarioConfig cfg;
  config_set(cfg, "vehicles", "55");
  EXPECT_EQ(cfg.vehicles, 55);
  EXPECT_EQ(cfg.vehicles_per_direction, 55);
  // The narrow key still addresses the highway population alone.
  config_set(cfg, "vehicles_per_direction", "7");
  EXPECT_EQ(cfg.vehicles, 55);
  EXPECT_EQ(cfg.vehicles_per_direction, 7);
}

TEST(ConfigKv, MapSourceAliasSelectsGraphMobility) {
  ScenarioConfig cfg;
  config_set(cfg, "map.source", "file");
  config_set(cfg, "map.file", "maps/city.csv");
  EXPECT_EQ(cfg.map.source, MapSource::kFile);
  EXPECT_EQ(cfg.map.file, "maps/city.csv");
  // An imported map implies driving on it...
  EXPECT_EQ(cfg.mobility, MobilityKind::kGraph);
  // ...unless mobility is set afterwards (trace recorded on the map).
  config_set(cfg, "mobility", "trace");
  EXPECT_EQ(cfg.mobility, MobilityKind::kTrace);
  EXPECT_EQ(cfg.map.source, MapSource::kFile);
  // map.source=grid touches nothing else.
  ScenarioConfig untouched;
  config_set(untouched, "map.source", "grid");
  EXPECT_EQ(untouched.mobility, MobilityKind::kHighway);
  EXPECT_THROW(config_set(cfg, "map.source", "osm"), std::invalid_argument);
}

TEST(ConfigKv, MapAliasSurvivesSerializeParseRoundTrip) {
  // `map.source` serializes before `mobility`, so an explicit non-graph
  // mobility over a file map is restored exactly.
  ScenarioConfig cfg;
  config_set(cfg, "map.source", "file");
  config_set(cfg, "map.file", "m.csv");
  config_set(cfg, "mobility", "trace");
  const ScenarioConfig parsed = parse_config(serialize_config(cfg));
  EXPECT_EQ(parsed.map.source, MapSource::kFile);
  EXPECT_EQ(parsed.map.file, "m.csv");
  EXPECT_EQ(parsed.mobility, MobilityKind::kTrace);
}

TEST(ConfigKv, GraphMobilityKeys) {
  ScenarioConfig cfg;
  config_set(cfg, "mobility", "graph");
  EXPECT_EQ(cfg.mobility, MobilityKind::kGraph);
  EXPECT_EQ(config_get(cfg, "mobility"), "graph");
  config_set(cfg, "graph.replan_prob", "0.125");
  EXPECT_DOUBLE_EQ(cfg.graph.replan_prob, 0.125);
  config_set(cfg, "graph.min_trip_m", "750");
  EXPECT_DOUBLE_EQ(cfg.graph.min_trip_m, 750.0);
  for (const char* key : {"graph.speed_mean", "graph.speed_stddev",
                          "graph.replan_prob", "graph.min_trip_m",
                          "map.source", "map.file"}) {
    EXPECT_TRUE(config_has_key(key)) << key;
  }
}

TEST(ConfigKv, UnknownKeyRejected) {
  ScenarioConfig cfg;
  EXPECT_THROW(config_get(cfg, "nope"), std::invalid_argument);
  EXPECT_THROW(config_set(cfg, "nope", "1"), std::invalid_argument);
  EXPECT_THROW(config_set(cfg, "traffic.nope", "1"), std::invalid_argument);
  try {
    config_set(cfg, "bogus.key", "1");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus.key"), std::string::npos);
  }
}

TEST(ConfigKv, BadValueRejectedWithKeyAndValueInMessage) {
  ScenarioConfig cfg;
  EXPECT_THROW(config_set(cfg, "vehicles", "abc"), std::invalid_argument);
  EXPECT_THROW(config_set(cfg, "vehicles", "12x"), std::invalid_argument);
  EXPECT_THROW(config_set(cfg, "duration_s", ""), std::invalid_argument);
  EXPECT_THROW(config_set(cfg, "phy.model", "maybe"), std::invalid_argument);
  EXPECT_THROW(config_set(cfg, "mobility", "teleport"), std::invalid_argument);
  EXPECT_THROW(config_set(cfg, "traffic.payload_bytes", "-4"),
               std::invalid_argument);
  // Zero or negative populations would build a nodeless network.
  EXPECT_THROW(config_set(cfg, "vehicles", "0"), std::invalid_argument);
  EXPECT_THROW(config_set(cfg, "vehicles_per_direction", "-3"),
               std::invalid_argument);
  // Values outside the destination type's range must not silently wrap.
  EXPECT_THROW(config_set(cfg, "traffic.flows", "4294967297"),
               std::invalid_argument);
  EXPECT_THROW(config_set(cfg, "rsu_count", "-9999999999999"),
               std::invalid_argument);
  // Highway values the IDM model cannot be built with. A rejected value
  // leaves the config as it was.
  const int lanes = cfg.highway.lanes_per_direction;
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"highway.lanes_per_direction", "0"},
           {"highway.lanes_per_direction", "-1"},
           {"highway.lanes_per_direction", "65"},
           {"highway.length", "0"},
           {"highway.length", "-2000"},
           {"highway.idm.desired_speed_stddev", "-1"},
           // Values the radio, MAC, hello and lattice code assert against.
           {"comm_range_m", "0"},
           {"comm_range_m", "-250"},
           {"net.bitrate_bps", "0"},
           {"net.contention_window", "0"},
           {"net.contention_window", "-3"},
           {"net.interference_range_factor", "0.5"},
           {"hello.jitter_fraction", "-1"},
           {"hello.jitter_fraction", "1"},
           {"hello.jitter_fraction", "5"},
           {"manhattan.block", "0"},
           {"manhattan.streets_x", "0"},
           {"manhattan.streets_y", "-2"},
           // Negative infrastructure counts used to run as if zero.
           {"rsu_count", "-1"},
           {"bus_count", "-1"},
           // Physically meaningless values that ran as if valid: a run that
           // never starts, unbounded or negative IDM parameters, overlapping
           // carriageways, a MAC that can hold no frame.
           {"duration_s", "-1"},
           {"duration_s", "0"},
           {"highway.idm.desired_speed", "1e308"},
           {"highway.idm.desired_speed", "0"},
           {"highway.idm.desired_speed", "-1e9"},
           {"highway.idm.time_headway", "-1"},
           {"highway.idm.min_gap", "-1"},
           {"highway.idm.max_accel", "0"},
           {"highway.idm.comfortable_decel", "0"},
           {"highway.idm.vehicle_length", "0"},
           {"highway.lane_width", "0"},
           {"highway.median_gap", "-1e9"},
           {"net.queue_capacity", "0"},
           {"net.unicast_retry_limit", "-1"},
           // Ran as an unlimited flood, a negative wired delay, a
           // probability outside [0, 1] and a mobility model that never
           // moves (or drives backwards).
           {"yan_tickets", "-5"},
           {"net.backbone_delay_s", "-1"},
           {"highway.lane_change_prob", "5"},
           {"highway.lane_change_prob", "-0.1"},
           {"manhattan.turn_prob_left", "-3"},
           {"manhattan.turn_prob_right", "1.5"},
           {"manhattan.speed_mean", "0"},
           {"graph.speed_mean", "-13.9"}}) {
    try {
      config_set(cfg, key, value);
      ADD_FAILURE() << key << "=" << value << ": expected throw";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(key), std::string::npos) << msg;
      EXPECT_NE(msg.find("'" + value + "'"), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(cfg.highway.lanes_per_direction, lanes);
  EXPECT_NO_THROW(config_set(cfg, "highway.lanes_per_direction", "64"));
  EXPECT_NO_THROW(config_set(cfg, "highway.idm.desired_speed_stddev", "0"));
  EXPECT_NO_THROW(config_set(cfg, "hello.jitter_fraction", "0"));
  EXPECT_NO_THROW(config_set(cfg, "net.interference_range_factor", "1"));
  EXPECT_NO_THROW(config_set(cfg, "net.contention_window", "1"));
  EXPECT_NO_THROW(config_set(cfg, "highway.idm.desired_speed", "100"));
  EXPECT_NO_THROW(config_set(cfg, "highway.idm.time_headway", "0"));
  EXPECT_NO_THROW(config_set(cfg, "highway.median_gap", "0"));
  EXPECT_NO_THROW(config_set(cfg, "net.queue_capacity", "1"));
  EXPECT_NO_THROW(config_set(cfg, "net.unicast_retry_limit", "0"));
  EXPECT_NO_THROW(config_set(cfg, "yan_tickets", "0"));
  EXPECT_NO_THROW(config_set(cfg, "net.backbone_delay_s", "0"));
  EXPECT_NO_THROW(config_set(cfg, "highway.lane_change_prob", "1"));
  EXPECT_NO_THROW(config_set(cfg, "manhattan.turn_prob_left", "0"));
  // A one-street lattice is a valid road for graph mobility.
  EXPECT_NO_THROW(config_set(cfg, "manhattan.streets_x", "1"));
  try {
    config_set(cfg, "traffic.rate_pps", "fast");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("traffic.rate_pps"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fast"), std::string::npos) << msg;
  }
}

TEST(ConfigKv, CheckedParsersRejectTrailingGarbage) {
  EXPECT_EQ(parse_int_checked("42").value(), 42);
  EXPECT_EQ(parse_int_checked("-3").value(), -3);
  EXPECT_FALSE(parse_int_checked("42 ").has_value());
  EXPECT_FALSE(parse_int_checked("4.2").has_value());
  EXPECT_FALSE(parse_int_checked("").has_value());
  EXPECT_DOUBLE_EQ(parse_double_checked("2.5e3").value(), 2500.0);
  EXPECT_FALSE(parse_double_checked("2.5x").has_value());
  EXPECT_TRUE(parse_bool_checked("on").value());
  EXPECT_FALSE(parse_bool_checked("off").value());
  EXPECT_FALSE(parse_bool_checked("2").has_value());
}

TEST(ConfigKv, NonFiniteAndOverflowingNumbersRejected) {
  for (const char* v : {"inf", "-inf", "nan", "infinity", "-nan"}) {
    EXPECT_FALSE(parse_double_checked(v).has_value()) << v;
  }
  EXPECT_DOUBLE_EQ(parse_double_checked("1e300").value(), 1e300);
  ScenarioConfig cfg;
  for (const char* v : {"inf", "-inf", "nan"}) {
    try {
      config_set(cfg, "traffic.rate_pps", v);
      FAIL() << "accepted traffic.rate_pps=" << v;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("a finite real number"),
                std::string::npos)
          << e.what();
    }
  }
  // Seconds keys also refuse a finite value whose microseconds overflow:
  // the SimTime ones and the plain doubles the engine converts to SimTime.
  for (const char* key :
       {"hello.interval_s", "duration_s", "mobility_tick_s", "traffic.start_s",
        "traffic.stop_s", "fault.vehicle_mtbf_s", "fault.vehicle_downtime_s",
        "fault.rsu_mtbf_s", "fault.rsu_downtime_s"}) {
    const std::string before = config_get(cfg, key);
    for (const char* v : {"inf", "-inf", "nan", "1e300", "-1e300"}) {
      try {
        config_set(cfg, key, v);
        FAIL() << "accepted " << key << "=" << v;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(
            std::string(e.what()).find("seconds as a finite real number"),
            std::string::npos)
            << e.what();
      }
    }
    EXPECT_EQ(config_get(cfg, key), before) << key;
  }
  config_set(cfg, "hello.interval_s", "9e6");  // 104 days still fits
  EXPECT_EQ(cfg.hello.interval, core::SimTime::seconds(9e6));
}

TEST(ConfigKv, SerializeParseRoundTrip) {
  ScenarioConfig cfg;
  cfg.seed = 99;
  cfg.duration_s = 33.25;
  cfg.mobility = MobilityKind::kManhattan;
  cfg.vehicles = 64;
  cfg.vehicles_per_direction = 13;  // differs from `vehicles` on purpose
  cfg.comm_range_m = 175.5;
  cfg.phy = PhyModel::kShadowing;
  cfg.protocol = "greedy";
  cfg.traffic.rate_pps = 0.1;
  cfg.traffic.payload_bytes = 256;
  cfg.hello.interval = core::SimTime::seconds(0.25);
  cfg.highway.idm.desired_speed = 21.125;
  cfg.manhattan.turn_prob_left = 0.3;
  cfg.net.contention_window = 64;
  cfg.signal.path_loss_exponent = 3.0;

  const std::string text = serialize_config(cfg);
  const ScenarioConfig parsed = parse_config(text);
  EXPECT_EQ(serialize_config(parsed), text);

  EXPECT_EQ(parsed.seed, 99u);
  EXPECT_DOUBLE_EQ(parsed.duration_s, 33.25);
  EXPECT_EQ(parsed.mobility, MobilityKind::kManhattan);
  EXPECT_EQ(parsed.vehicles, 64);
  EXPECT_EQ(parsed.vehicles_per_direction, 13);
  EXPECT_EQ(parsed.phy, PhyModel::kShadowing);
  EXPECT_EQ(parsed.protocol, "greedy");
  EXPECT_DOUBLE_EQ(parsed.traffic.rate_pps, 0.1);
  EXPECT_EQ(parsed.traffic.payload_bytes, 256u);
  EXPECT_EQ(parsed.hello.interval, core::SimTime::seconds(0.25));
  EXPECT_DOUBLE_EQ(parsed.highway.idm.desired_speed, 21.125);
  EXPECT_EQ(parsed.net.contention_window, 64);
}

TEST(ConfigKv, RoundTripEveryKeyIndividually) {
  // set(get()) must be the identity for every key of the default config —
  // except the documented `vehicles` alias, which also writes
  // vehicles_per_direction (their defaults differ).
  const ScenarioConfig defaults;
  const std::string before = serialize_config(defaults);
  for (const auto& key : config_keys()) {
    ScenarioConfig cfg;
    config_set(cfg, key, config_get(defaults, key));
    if (key == "vehicles") {
      EXPECT_EQ(cfg.vehicles_per_direction, defaults.vehicles);
      cfg.vehicles_per_direction = defaults.vehicles_per_direction;
    }
    EXPECT_EQ(serialize_config(cfg), before) << key;
  }
}

TEST(ConfigKv, GeometryModeKeysParseLineAndRouteOnly) {
  ScenarioConfig cfg;
  EXPECT_EQ(config_get(cfg, "geometry"), "line");
  config_set(cfg, "geometry", "route");
  EXPECT_EQ(cfg.geometry, sim::GeometryMode::kRoute);
  EXPECT_EQ(config_get(cfg, "geometry"), "route");
  EXPECT_THROW(config_set(cfg, "geometry", "plane"), std::invalid_argument);
  // One key serves zone, grid and gvgrid; the per-protocol keys are gone.
  for (const char* old : {"zone.geometry", "grid.geometry", "gvgrid.geometry"}) {
    EXPECT_FALSE(config_has_key(old)) << old;
  }

  config_set(cfg, "map.trace_tolerance_m", "12.5");
  EXPECT_DOUBLE_EQ(cfg.map.trace_tolerance_m, 12.5);
}

TEST(ConfigKv, EnumKeysNameEveryChoiceInTheirError) {
  // Each enum key's error lists its whole name table, in table order.
  const std::vector<std::pair<std::string, std::string>> expected{
      {"mobility", "highway|manhattan|trace|graph"},
      {"phy.model", "unitdisk|shadowing|nakagami"},
      {"geometry", "line|route"},
      {"flood.suppression", "none|etx"},
  };
  for (const auto& [key, names] : expected) {
    ScenarioConfig cfg;
    try {
      config_set(cfg, key, "bogus");
      FAIL() << key << ": expected throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string{e.what()}, "config key '" + key +
                                           "': invalid value 'bogus' "
                                           "(expected " + names + ")");
    }
    // Every listed name parses and reads back as itself.
    std::size_t start = 0;
    while (start <= names.size()) {
      const std::size_t bar = std::min(names.find('|', start), names.size());
      const std::string name = names.substr(start, bar - start);
      config_set(cfg, key, name);
      EXPECT_EQ(config_get(cfg, key), name) << key;
      start = bar + 1;
    }
  }
}

TEST(ConfigKv, PhyModelKeyAndShadowingAlias) {
  ScenarioConfig cfg;
  EXPECT_EQ(config_get(cfg, "phy.model"), "unitdisk");
  config_set(cfg, "phy.model", "nakagami");
  EXPECT_EQ(cfg.phy, PhyModel::kNakagami);
  EXPECT_EQ(config_get(cfg, "phy.model"), "nakagami");
  config_set(cfg, "phy.model", "shadowing");
  EXPECT_EQ(config_get(cfg, "phy.model"), "shadowing");
  // `phy.model` is the only PHY selector: the pre-`phy.model` bool is gone.
  EXPECT_FALSE(config_has_key("shadowing"));
  EXPECT_THROW(config_set(cfg, "phy.model", "rician"), std::invalid_argument);
  config_set(cfg, "phy.nakagami_m", "5");
  EXPECT_EQ(cfg.nakagami_m, 5);
  EXPECT_THROW(config_set(cfg, "phy.nakagami_m", "0"), std::invalid_argument);
  EXPECT_THROW(config_set(cfg, "phy.nakagami_m", "-1"), std::invalid_argument);

  // A nakagami selection survives the serialize/parse round trip.
  ScenarioConfig naka;
  naka.phy = PhyModel::kNakagami;
  naka.nakagami_m = 2;
  const ScenarioConfig parsed = parse_config(serialize_config(naka));
  EXPECT_EQ(parsed.phy, PhyModel::kNakagami);
  EXPECT_EQ(parsed.nakagami_m, 2);
}

TEST(ConfigKv, FaultKeysRoundTrip) {
  ScenarioConfig cfg;
  // No switch: faults are on iff a plan or a churn rate is set.
  EXPECT_FALSE(config_has_key("fault.enabled"));
  EXPECT_FALSE(cfg.fault.active());
  config_set(cfg, "fault.plan", "node:3:10:60;seg:2:15");
  EXPECT_TRUE(cfg.fault.active());
  config_set(cfg, "fault.vehicle_mtbf_s", "120");
  config_set(cfg, "fault.rsu_downtime_s", "33.5");
  EXPECT_EQ(cfg.fault.plan, "node:3:10:60;seg:2:15");
  EXPECT_DOUBLE_EQ(cfg.fault.vehicle_mtbf_s, 120.0);
  EXPECT_DOUBLE_EQ(cfg.fault.rsu_downtime_s, 33.5);
  const ScenarioConfig parsed = parse_config(serialize_config(cfg));
  EXPECT_TRUE(parsed.fault.active());
  EXPECT_EQ(parsed.fault.plan, "node:3:10:60;seg:2:15");
  EXPECT_DOUBLE_EQ(parsed.fault.vehicle_mtbf_s, 120.0);
  EXPECT_DOUBLE_EQ(parsed.fault.rsu_downtime_s, 33.5);
  // Named default (not a temporary): gcc 12 -O2 false-positives a
  // maybe-uninitialized on the temporary's string members after inlining.
  const ScenarioConfig defaults;
  EXPECT_NE(config_digest(parsed), config_digest(defaults));
}

TEST(ConfigKv, ValidateConfigAppliesEachKeysBoundToTheStruct) {
  // Named default, as in FaultKeysRoundTrip: gcc 12 -O3 false-positives a
  // maybe-uninitialized on a temporary's string members.
  const ScenarioConfig defaults;
  EXPECT_NO_THROW(validate_config(defaults));
  // Values written straight into the struct, past config_set: the same
  // bound rejects them, naming the key and the value.
  const std::vector<std::pair<std::string, void (*)(ScenarioConfig&)>> bad{
      {"graph.replan_prob",
       [](ScenarioConfig& c) { c.graph.replan_prob = -1.0; }},
      {"traffic.rate_pps",
       [](ScenarioConfig& c) { c.traffic.rate_pps = std::nan(""); }},
      {"manhattan.block",
       [](ScenarioConfig& c) { c.manhattan.block = HUGE_VAL; }},
      {"highway.lane_width",
       [](ScenarioConfig& c) { c.highway.lane_width = HUGE_VAL; }},
      {"protocol", [](ScenarioConfig& c) { c.protocol = "olsr"; }},
      {"net.slot_time_s",
       [](ScenarioConfig& c) { c.net.slot_time = core::SimTime::micros(-1); }},
      {"phy.nakagami_m", [](ScenarioConfig& c) { c.nakagami_m = 0; }},
      {"duration_s", [](ScenarioConfig& c) { c.duration_s = -1.0; }},
      {"net.queue_capacity", [](ScenarioConfig& c) { c.net.queue_capacity = 0; }},
  };
  for (const auto& [key, corrupt] : bad) {
    ScenarioConfig cfg;
    corrupt(cfg);
    try {
      validate_config(cfg);
      ADD_FAILURE() << key << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("config key '" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigKv, ParseSkipsCommentsAndRejectsGarbage) {
  ScenarioConfig cfg =
      parse_config("# provenance header\n\nvehicles=9\nprotocol=dsr\n");
  EXPECT_EQ(cfg.vehicles, 9);
  EXPECT_EQ(cfg.protocol, "dsr");
  EXPECT_THROW(parse_config("vehicles"), std::invalid_argument);
  EXPECT_THROW(parse_config("unknown=1"), std::invalid_argument);
}

TEST(ConfigKv, DigestTracksConfigIdentity) {
  ScenarioConfig a, b;
  EXPECT_EQ(config_digest(a), config_digest(b));
  EXPECT_EQ(config_digest(a).size(), 16u);
  config_set(b, "traffic.flows", "99");
  EXPECT_NE(config_digest(a), config_digest(b));
  config_set(a, "traffic.flows", "99");
  EXPECT_EQ(config_digest(a), config_digest(b));
}

}  // namespace
}  // namespace vanet::sim

#include "sim/config_kv.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace vanet::sim {

std::string format_double(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

namespace {

std::string fmt_value(double v) { return format_double(v); }
std::string fmt_value(bool v) { return v ? "true" : "false"; }
template <typename T>
std::string fmt_value(T v)
  requires std::is_integral_v<T>
{
  return std::to_string(v);
}

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("config key '" + key + "': invalid value '" +
                              value + "' (expected " + expected + ")");
}

struct Field {
  std::string key;
  std::function<std::string(const ScenarioConfig&)> get;
  std::function<void(ScenarioConfig&, const std::string&, const std::string&)>
      set;  ///< (cfg, key-for-errors, value)
};

/// `v` parsed as a `T`, or nothing when it is malformed or out of range.
template <typename T>
std::optional<T> parse_numeric(const std::string& v) {
  if constexpr (std::is_same_v<T, double>) {
    return parse_double_checked(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    return parse_bool_checked(v);
  } else {
    const auto parsed = parse_int_checked(v);
    if (!parsed || !std::in_range<T>(*parsed)) return std::nullopt;
    return static_cast<T>(*parsed);
  }
}

template <typename T>
constexpr const char* numeric_expected() {
  if constexpr (std::is_same_v<T, double>) return "a finite real number";
  if constexpr (std::is_same_v<T, bool>) return "true|false";
  if constexpr (std::is_unsigned_v<T>) return "a non-negative integer in range";
  return "an integer in range";
}

/// A numeric field whose value must satisfy `ok`, described by `expected`.
/// Validated here so a bad sweep value fails as a catchable config error
/// instead of an assertion inside the code that consumes it.
template <typename T>
Field checked_field(std::string key, T& (*ref)(ScenarioConfig&),
                    bool (*ok)(T), const char* expected) {
  Field f;
  f.key = std::move(key);
  f.get = [ref](const ScenarioConfig& cfg) {
    return fmt_value(ref(const_cast<ScenarioConfig&>(cfg)));
  };
  f.set = [ref, ok, expected](ScenarioConfig& cfg, const std::string& k,
                              const std::string& v) {
    const auto parsed = parse_numeric<T>(v);
    if (!parsed || !ok(*parsed)) bad_value(k, v, expected);
    ref(cfg) = *parsed;
  };
  return f;
}

template <typename T>
Field numeric_field(std::string key, T& (*ref)(ScenarioConfig&)) {
  return checked_field(
      std::move(key), ref, +[](T) { return true; }, numeric_expected<T>());
}

Field string_field(std::string key, std::string& (*ref)(ScenarioConfig&)) {
  Field f;
  f.key = std::move(key);
  f.get = [ref](const ScenarioConfig& cfg) {
    return ref(const_cast<ScenarioConfig&>(cfg));
  };
  f.set = [ref](ScenarioConfig& cfg, const std::string&, const std::string& v) {
    ref(cfg) = v;
  };
  return f;
}

/// An enum field, declared once as its (name, value) table. The table order
/// is the order of the "expected a|b|c" error text, and its first name is
/// what an out-of-table value reads back as.
template <typename E>
Field enum_field(std::string key, E& (*ref)(ScenarioConfig&),
                 std::vector<std::pair<std::string, E>> names) {
  std::string expected;
  for (const auto& entry : names) {
    if (!expected.empty()) expected += '|';
    expected += entry.first;
  }
  Field f;
  f.key = std::move(key);
  f.get = [ref, names](const ScenarioConfig& cfg) {
    const E current = ref(const_cast<ScenarioConfig&>(cfg));
    for (const auto& [name, value] : names) {
      if (value == current) return name;
    }
    return names.front().first;
  };
  f.set = [ref, names, expected](ScenarioConfig& cfg, const std::string& k,
                                 const std::string& v) {
    for (const auto& [name, value] : names) {
      if (name == v) {
        ref(cfg) = value;
        return;
      }
    }
    bad_value(k, v, expected.c_str());
  };
  return f;
}

/// `value` as seconds that convert to core::SimTime, or a config error.
double checked_seconds(const std::string& key, const std::string& value) {
  const auto parsed = parse_double_checked(value);
  if (!parsed || !core::SimTime::fits_seconds(*parsed)) {
    bad_value(key, value, "seconds as a finite real number in range");
  }
  return *parsed;
}

/// A plain `double` seconds field; it must convert to core::SimTime.
Field seconds_field(std::string key, double& (*ref)(ScenarioConfig&)) {
  Field f = numeric_field(std::move(key), ref);
  f.set = [ref](ScenarioConfig& cfg, const std::string& k,
                const std::string& v) { ref(cfg) = checked_seconds(k, v); };
  return f;
}

/// A SimTime field exposed in seconds.
Field simtime_field(std::string key, core::SimTime& (*ref)(ScenarioConfig&)) {
  Field f;
  f.key = std::move(key);
  f.get = [ref](const ScenarioConfig& cfg) {
    return fmt_value(ref(const_cast<ScenarioConfig&>(cfg)).as_seconds());
  };
  f.set = [ref](ScenarioConfig& cfg, const std::string& k,
                const std::string& v) {
    ref(cfg) = core::SimTime::seconds(checked_seconds(k, v));
  };
  return f;
}

// Accessor shorthands. Each returns a reference into the config so one
// function serves both get and set.
#define REF(expr) +[](ScenarioConfig& c) -> decltype(c.expr)& { return c.expr; }

std::vector<Field> build_fields() {
  std::vector<Field> fields;
  auto num = [&fields](std::string key, auto ref) {
    fields.push_back(numeric_field(std::move(key), ref));
  };
  auto seconds = [&fields](std::string key, auto ref) {
    fields.push_back(seconds_field(std::move(key), ref));
  };
  const std::vector<std::pair<std::string, routing::GeometryMode>> geometry{
      {"line", routing::GeometryMode::kLine},
      {"route", routing::GeometryMode::kRoute}};

  // --- top level -----------------------------------------------------------
  num("seed", REF(seed));
  seconds("duration_s", REF(duration_s));
  seconds("mobility_tick_s", REF(mobility_tick_s));
  {
    // `map.source` precedes `mobility` so the parse order lets an explicit
    // mobility line re-settle the alias (see the header comment).
    Field f;
    f.key = "map.source";
    f.get = [](const ScenarioConfig& cfg) {
      return cfg.map.source == MapSource::kFile ? std::string("file")
                                                : std::string("grid");
    };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      if (v == "grid") {
        cfg.map.source = MapSource::kGrid;
      } else if (v == "file") {
        cfg.map.source = MapSource::kFile;
        // Alias: an imported map implies driving on it. Set mobility
        // afterwards to override (e.g. trace playback recorded on the map).
        cfg.mobility = MobilityKind::kGraph;
      } else {
        bad_value(k, v, "grid|file");
      }
    };
    fields.push_back(std::move(f));
  }
  fields.push_back(string_field("map.file", REF(map.file)));
  num("map.trace_tolerance_m", REF(map.trace_tolerance_m));
  fields.push_back(enum_field("mobility", REF(mobility),
                              {{"highway", MobilityKind::kHighway},
                               {"manhattan", MobilityKind::kManhattan},
                               {"trace", MobilityKind::kTrace},
                               {"graph", MobilityKind::kGraph}}));
  {
    // `vehicles` first so `vehicles_per_direction` re-settles it on parse
    // (see header comment about the alias).
    Field f;
    f.key = "vehicles";
    f.get = [](const ScenarioConfig& cfg) { return fmt_value(cfg.vehicles); };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      const auto parsed = parse_int_checked(v);
      if (!parsed || *parsed <= 0 ||
          *parsed > std::numeric_limits<int>::max()) {
        bad_value(k, v, "a positive integer");
      }
      cfg.vehicles = static_cast<int>(*parsed);
      cfg.vehicles_per_direction = static_cast<int>(*parsed);
    };
    fields.push_back(std::move(f));
  }
  // A zero population builds a nodeless network; reject it here so sweeps
  // and --set fail loudly instead of tripping the Scenario invariant.
  fields.push_back(checked_field(
      "vehicles_per_direction", REF(vehicles_per_direction),
      +[](int v) { return v > 0; }, "a positive integer"));
  num("comm_range_m", REF(comm_range_m));
  fields.push_back(enum_field("phy.model", REF(phy),
                              {{"unitdisk", PhyModel::kUnitDisk},
                               {"shadowing", PhyModel::kShadowing},
                               {"nakagami", PhyModel::kNakagami}}));
  {
    // Validated here (not asserted in the scenario) so a bad sweep value
    // fails as a catchable config error.
    Field f;
    f.key = "phy.nakagami_m";
    f.get = [](const ScenarioConfig& cfg) { return fmt_value(cfg.nakagami_m); };
    f.set = [](ScenarioConfig& cfg, const std::string& k,
               const std::string& v) {
      // Accept integral-valued reals too ("1.0"): m is mathematically a real
      // shape parameter, the closed-form Erlang tail just needs it integer.
      auto parsed = parse_int_checked(v);
      if (!parsed) {
        const auto real = parse_double_checked(v);
        if (real && *real == static_cast<long long>(*real)) {
          parsed = static_cast<long long>(*real);
        }
      }
      if (!parsed || *parsed < 1 || *parsed > 64) {
        bad_value(k, v, "an integer in [1, 64]");
      }
      cfg.nakagami_m = static_cast<int>(*parsed);
    };
    fields.push_back(std::move(f));
  }
  num("rsu_count", REF(rsu_count));
  num("bus_count", REF(bus_count));
  fields.push_back(string_field("protocol", REF(protocol)));
  num("yan_tickets", REF(yan_tickets));
  num("car_cell_m", REF(car_cell_m));
  num("sample_reachability", REF(sample_reachability));
  fields.push_back(enum_field("zone.geometry", REF(zone_geometry), geometry));
  fields.push_back(enum_field("grid.geometry", REF(grid_geometry), geometry));
  fields.push_back(
      enum_field("gvgrid.geometry", REF(gvgrid_geometry), geometry));

  // --- etx.* / flood.* (link-quality family; routing/linkquality/) ---------
  // Bounds mirror the LinkQualityTable assertions.
  fields.push_back(checked_field(
      "etx.window", REF(etx.window),
      +[](int v) { return v >= 1 && v <= 64; }, "an integer in [1, 64]"));
  fields.push_back(checked_field(
      "etx.hello_weight", REF(etx.hello_weight),
      +[](double v) { return v > 0.0 && v <= 1.0; }, "a real number in (0, 1]"));
  fields.push_back(
      enum_field("flood.suppression", REF(flood_suppression),
                 {{"none", routing::FloodSuppression::kNone},
                  {"etx", routing::FloodSuppression::kEtx}}));

  // --- highway.* -----------------------------------------------------------
  fields.push_back(checked_field(
      "highway.length", REF(highway.length),
      +[](double v) { return v > 0.0; }, "a positive real number"));
  // The model keeps one list per (direction, lane), so the count is bounded.
  fields.push_back(checked_field(
      "highway.lanes_per_direction", REF(highway.lanes_per_direction),
      +[](int v) { return v >= 1 && v <= 64; }, "an integer in [1, 64]"));
  num("highway.bidirectional", REF(highway.bidirectional));
  num("highway.lane_width", REF(highway.lane_width));
  num("highway.median_gap", REF(highway.median_gap));
  num("highway.lane_change_prob", REF(highway.lane_change_prob));
  num("highway.idm.desired_speed", REF(highway.idm.desired_speed));
  fields.push_back(checked_field(
      "highway.idm.desired_speed_stddev", REF(highway.idm.desired_speed_stddev),
      +[](double v) { return v >= 0.0; }, "a non-negative real number"));
  num("highway.idm.time_headway", REF(highway.idm.time_headway));
  num("highway.idm.min_gap", REF(highway.idm.min_gap));
  num("highway.idm.max_accel", REF(highway.idm.max_accel));
  num("highway.idm.comfortable_decel", REF(highway.idm.comfortable_decel));
  num("highway.idm.vehicle_length", REF(highway.idm.vehicle_length));

  // --- manhattan.* ---------------------------------------------------------
  num("manhattan.streets_x", REF(manhattan.streets_x));
  num("manhattan.streets_y", REF(manhattan.streets_y));
  num("manhattan.block", REF(manhattan.block));
  num("manhattan.speed_mean", REF(manhattan.speed_mean));
  num("manhattan.speed_stddev", REF(manhattan.speed_stddev));
  num("manhattan.turn_prob_left", REF(manhattan.turn_prob_left));
  num("manhattan.turn_prob_right", REF(manhattan.turn_prob_right));

  // --- graph.* (graph-constrained mobility) --------------------------------
  num("graph.speed_mean", REF(graph.speed_mean));
  num("graph.speed_stddev", REF(graph.speed_stddev));
  num("graph.replan_prob", REF(graph.replan_prob));
  num("graph.min_trip_m", REF(graph.min_trip_m));

  // --- traffic.* -----------------------------------------------------------
  num("traffic.flows", REF(traffic.flows));
  num("traffic.rate_pps", REF(traffic.rate_pps));
  num("traffic.payload_bytes", REF(traffic.payload_bytes));
  seconds("traffic.start_s", REF(traffic.start_s));
  seconds("traffic.stop_s", REF(traffic.stop_s));
  num("traffic.min_pair_distance_m", REF(traffic.min_pair_distance_m));

  // --- hello.* (times in seconds) ------------------------------------------
  fields.push_back(simtime_field("hello.interval_s", REF(hello.interval)));
  num("hello.jitter_fraction", REF(hello.jitter_fraction));
  fields.push_back(simtime_field("hello.expiry_s", REF(hello.expiry)));
  num("hello.beacon_bytes", REF(hello.beacon_bytes));

  // --- net.* ---------------------------------------------------------------
  num("net.bitrate_bps", REF(net.bitrate_bps));
  fields.push_back(simtime_field("net.slot_time_s", REF(net.slot_time)));
  num("net.contention_window", REF(net.contention_window));
  num("net.unicast_retry_limit", REF(net.unicast_retry_limit));
  num("net.queue_capacity", REF(net.queue_capacity));
  num("net.phy_overhead_bytes", REF(net.phy_overhead_bytes));
  fields.push_back(simtime_field("net.backbone_delay_s", REF(net.backbone_delay)));
  num("net.interference_range_factor", REF(net.interference_range_factor));

  // --- signal.* ------------------------------------------------------------
  num("signal.tx_power_dbm", REF(signal.tx_power_dbm));
  num("signal.ref_distance_m", REF(signal.ref_distance_m));
  num("signal.ref_loss_db", REF(signal.ref_loss_db));
  num("signal.path_loss_exponent", REF(signal.path_loss_exponent));
  num("signal.shadowing_sigma_db", REF(signal.shadowing_sigma_db));
  num("signal.rx_threshold_dbm", REF(signal.rx_threshold_dbm));

  // --- fault.* (deterministic fault injection; sim/fault_plan.h) -----------
  num("fault.enabled", REF(fault.enabled));
  fields.push_back(string_field("fault.plan", REF(fault.plan)));
  seconds("fault.vehicle_mtbf_s", REF(fault.vehicle_mtbf_s));
  seconds("fault.vehicle_downtime_s", REF(fault.vehicle_downtime_s));
  seconds("fault.rsu_mtbf_s", REF(fault.rsu_mtbf_s));
  seconds("fault.rsu_downtime_s", REF(fault.rsu_downtime_s));

  return fields;
}

#undef REF

const std::vector<Field>& fields() {
  static const std::vector<Field> kFields = build_fields();
  return kFields;
}

const Field* find_field(const std::string& key) {
  for (const Field& f : fields()) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

const Field& field_or_throw(const std::string& key) {
  const Field* f = find_field(key);
  if (f == nullptr) {
    throw std::invalid_argument("unknown config key '" + key + "'");
  }
  return *f;
}

}  // namespace

std::optional<long long> parse_int_checked(const std::string& s) {
  if (s.empty()) return std::nullopt;
  long long value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

std::optional<double> parse_double_checked(const std::string& s) {
  if (s.empty()) return std::nullopt;
  double value = 0.0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return std::isfinite(value) ? std::optional{value} : std::nullopt;
}

std::optional<bool> parse_bool_checked(const std::string& s) {
  if (s == "true" || s == "1" || s == "on" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "off" || s == "no") return false;
  return std::nullopt;
}

const std::vector<std::string>& config_keys() {
  static const std::vector<std::string> kKeys = [] {
    std::vector<std::string> keys;
    for (const Field& f : fields()) keys.push_back(f.key);
    return keys;
  }();
  return kKeys;
}

bool config_has_key(const std::string& key) {
  return find_field(key) != nullptr;
}

std::string config_get(const ScenarioConfig& cfg, const std::string& key) {
  return field_or_throw(key).get(cfg);
}

void config_set(ScenarioConfig& cfg, const std::string& key,
                const std::string& value) {
  field_or_throw(key).set(cfg, key, value);
}

std::string serialize_config(const ScenarioConfig& cfg) {
  std::string out;
  for (const Field& f : fields()) {
    out += f.key;
    out += '=';
    out += f.get(cfg);
    out += '\n';
  }
  return out;
}

ScenarioConfig parse_config(const std::string& text) {
  ScenarioConfig cfg;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("config line without '=': '" + line + "'");
    }
    config_set(cfg, line.substr(0, eq), line.substr(eq + 1));
  }
  return cfg;
}

std::string config_digest(const ScenarioConfig& cfg) {
  const std::string text = serialize_config(cfg);
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  static const char* kHex = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = kHex[h & 0xf];
    h >>= 4;
  }
  return hex;
}

}  // namespace vanet::sim

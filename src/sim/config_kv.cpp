#include "sim/config_kv.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
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
std::string fmt_value(core::SimTime t) { return format_double(t.as_seconds()); }
template <typename T>
std::string fmt_value(T v)
  requires std::is_integral_v<T>
{
  return std::to_string(v);
}

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const std::string& expected) {
  throw std::invalid_argument("config key '" + key + "': invalid value '" +
                              value + "' (expected " + expected + ")");
}

/// A whole-config rule no single key can express; `what` names its keys.
[[noreturn]] void bad_combination(const std::string& what) {
  throw std::invalid_argument("config: " + what);
}

/// One key. Its bound is written once, as a predicate both `set` (on the
/// parsed value) and `valid` (on the value already in a config) call.
struct Field {
  std::string key;
  std::function<std::string(const ScenarioConfig&)> get;
  std::function<void(ScenarioConfig&, const std::string&, const std::string&)>
      set;  ///< (cfg, key-for-errors, value); writes nothing on a bad value
  /// Whether the config's value is inside the bound; empty when every value
  /// of the field's type is.
  std::function<bool(const ScenarioConfig&)> valid;
  std::string expected;  ///< the bound in words, for the error text
};

/// A reference into the config, so one accessor serves get, set and valid.
template <typename T>
using Ref = T& (*)(ScenarioConfig&);

template <typename T>
T& at(Ref<T> ref, const ScenarioConfig& cfg) {
  return ref(const_cast<ScenarioConfig&>(cfg));
}

/// `v` parsed as a `T`, or nothing when it is malformed or out of range. A
/// SimTime is given in seconds.
template <typename T>
std::optional<T> parse_numeric(const std::string& v) {
  if constexpr (std::is_same_v<T, double>) {
    return parse_double_checked(v);
  } else if constexpr (std::is_same_v<T, core::SimTime>) {
    const auto s = parse_double_checked(v);
    if (!s || !core::SimTime::fits_seconds(*s)) return std::nullopt;
    return core::SimTime::seconds(*s);
  } else if constexpr (std::is_same_v<T, bool>) {
    return parse_bool_checked(v);
  } else {
    const auto parsed = parse_int_checked(v);
    if (!parsed || !std::in_range<T>(*parsed)) return std::nullopt;
    return static_cast<T>(*parsed);
  }
}

constexpr const char* kSeconds = "seconds as a finite real number in range";

template <typename T>
constexpr const char* numeric_expected() {
  if constexpr (std::is_same_v<T, double>) return "a finite real number";
  if constexpr (std::is_same_v<T, core::SimTime>) return kSeconds;
  if constexpr (std::is_same_v<T, bool>) return "true|false";
  if constexpr (std::is_unsigned_v<T>) return "a non-negative integer in range";
  return "an integer in range";
}

/// `ok` on a value that may not have come through the parser: a real must
/// also be finite, as parse_double_checked insists.
template <typename T>
bool in_bound(T v, bool (*ok)(T)) {
  if constexpr (std::is_same_v<T, double>) {
    if (!std::isfinite(v)) return false;
  }
  return ok(v);
}

/// A numeric field whose value must satisfy `ok`, described by `expected`.
/// Checked here so a bad sweep value fails as a catchable config error
/// instead of an assertion inside the code that consumes it.
template <typename T>
Field checked_field(std::string key, Ref<T> ref, bool (*ok)(T),
                    std::string expected) {
  Field f;
  f.key = std::move(key);
  f.expected = std::move(expected);
  f.get = [ref](const ScenarioConfig& cfg) { return fmt_value(at(ref, cfg)); };
  f.set = [ref, ok, what = f.expected](ScenarioConfig& cfg,
                                       const std::string& k,
                                       const std::string& v) {
    const auto parsed = parse_numeric<T>(v);
    if (!parsed || !in_bound(*parsed, ok)) bad_value(k, v, what);
    ref(cfg) = *parsed;
  };
  f.valid = [ref, ok](const ScenarioConfig& cfg) {
    return in_bound(at(ref, cfg), ok);
  };
  return f;
}

template <typename T>
bool any_value(T) {
  return true;
}

template <typename T>
Field numeric_field(std::string key, Ref<T> ref) {
  Field f = checked_field(std::move(key), ref, &any_value<T>,
                          numeric_expected<T>());
  // Only a real can hold a value (inf, nan) its parser would refuse.
  if constexpr (!std::is_same_v<T, double>) f.valid = nullptr;
  return f;
}

Field string_field(std::string key, Ref<std::string> ref) {
  Field f;
  f.key = std::move(key);
  f.get = [ref](const ScenarioConfig& cfg) { return at(ref, cfg); };
  f.set = [ref](ScenarioConfig& cfg, const std::string&, const std::string& v) {
    ref(cfg) = v;
  };
  return f;
}

/// An enum field, declared once as its (name, value) table. The table order
/// is the order of the "expected a|b|c" error text, and its first name is
/// what an out-of-table value reads back as.
template <typename E>
Field enum_field(std::string key, Ref<E> ref,
                 std::vector<std::pair<std::string, E>> names) {
  Field f;
  f.key = std::move(key);
  for (const auto& entry : names) {
    if (!f.expected.empty()) f.expected += '|';
    f.expected += entry.first;
  }
  f.get = [ref, names](const ScenarioConfig& cfg) {
    const E current = at(ref, cfg);
    for (const auto& [name, value] : names) {
      if (value == current) return name;
    }
    return names.front().first;
  };
  f.set = [ref, names, what = f.expected](ScenarioConfig& cfg,
                                          const std::string& k,
                                          const std::string& v) {
    for (const auto& [name, value] : names) {
      if (name == v) {
        ref(cfg) = value;
        return;
      }
    }
    bad_value(k, v, what);
  };
  return f;
}

// The bounds. Seconds kept as a double must also convert to core::SimTime.

bool positive_int(int v) { return v > 0; }
bool non_negative_int(int v) { return v >= 0; }
bool positive(double v) { return v > 0.0; }
bool non_negative(double v) { return v >= 0.0; }
bool probability(double v) { return v >= 0.0 && v <= 1.0; }
/// Caps on the road extents: far above any map this repository runs (8 km
/// highways, 400 m blocks), low enough that every coordinate and every
/// spatial index box stays finite.
bool highway_length(double v) { return v > 0.0 && v <= 1e6; }
bool lattice_block(double v) { return v > 0.0 && v <= 1e5; }
/// IDM desired speed: 360 km/h, above any road vehicle and over three times
/// the 30 m/s of the paper's Table I highways.
bool desired_speed(double v) { return v > 0.0 && v <= 100.0; }
/// One SimTime tick (1 us) per packet at most.
bool packet_rate(double v) { return v > 0.0 && v <= 1e6; }
bool seconds(double v) { return core::SimTime::fits_seconds(v); }
bool non_negative_seconds(double v) { return seconds(v) && v >= 0.0; }
/// A tick or interval that rounds to zero SimTime would never advance.
bool positive_tick(double v) {
  return seconds(v) && core::SimTime::seconds(v) > core::SimTime::zero();
}
bool positive_time(core::SimTime t) { return t > core::SimTime::zero(); }
bool non_negative_time(core::SimTime t) { return t >= core::SimTime::zero(); }
bool nakagami_shape(int m) { return m >= 1 && m <= 64; }

// Accessor shorthand. Each returns a reference into the config so one
// function serves get, set and valid.
#define REF(expr) +[](ScenarioConfig& c) -> decltype(c.expr)& { return c.expr; }

std::vector<Field> build_fields() {
  std::vector<Field> fields;
  auto num = [&fields](std::string key, auto ref) {
    fields.push_back(numeric_field(std::move(key), ref));
  };
  auto bounded = [&fields](std::string key, auto ref, auto ok,
                           std::string expected) {
    fields.push_back(
        checked_field(std::move(key), ref, ok, std::move(expected)));
  };

  // --- top level -----------------------------------------------------------
  num("seed", REF(seed));
  // A run that rounds to zero SimTime would run nothing and report zeros.
  bounded("duration_s", REF(duration_s), &positive_tick,
          "seconds as a finite real number of at least 1e-6");
  bounded("mobility_tick_s", REF(mobility_tick_s), &positive_tick,
          "seconds as a finite real number of at least 1e-6");
  {
    // `map.source` precedes `mobility` so the parse order lets an explicit
    // mobility line re-settle the alias (see the header comment).
    Field f = enum_field(
        "map.source", REF(map.source),
        {{"grid", MapSource::kGrid}, {"file", MapSource::kFile}});
    f.set = [set = f.set](ScenarioConfig& cfg, const std::string& k,
                          const std::string& v) {
      set(cfg, k, v);
      // Alias: an imported map implies driving on it. Set mobility
      // afterwards to override (e.g. trace playback recorded on the map).
      if (cfg.map.source == MapSource::kFile) {
        cfg.mobility = MobilityKind::kGraph;
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
    Field f = checked_field("vehicles", REF(vehicles), &positive_int,
                            "a positive integer");
    f.set = [set = f.set](ScenarioConfig& cfg, const std::string& k,
                          const std::string& v) {
      set(cfg, k, v);
      cfg.vehicles_per_direction = cfg.vehicles;
    };
    fields.push_back(std::move(f));
  }
  bounded("vehicles_per_direction", REF(vehicles_per_direction), &positive_int,
          "a positive integer");
  bounded("comm_range_m", REF(comm_range_m), &positive,
          "a finite real number > 0");
  fields.push_back(enum_field("phy.model", REF(phy),
                              {{"unitdisk", PhyModel::kUnitDisk},
                               {"shadowing", PhyModel::kShadowing},
                               {"nakagami", PhyModel::kNakagami}}));
  {
    Field f = checked_field("phy.nakagami_m", REF(nakagami_m), &nakagami_shape,
                            "an integer in [1, 64]");
    f.set = [set = f.set](ScenarioConfig& cfg, const std::string& k,
                          const std::string& v) {
      // Accept integral-valued reals too ("1.0"): m is mathematically a real
      // shape parameter, the closed-form Erlang tail just needs it integer.
      const auto real = parse_double_checked(v);
      const bool integral = real && std::abs(*real) <= 64.0 &&
                            *real == std::trunc(*real);
      set(cfg, k, integral ? std::to_string(static_cast<int>(*real)) : v);
    };
    fields.push_back(std::move(f));
  }
  bounded("rsu_count", REF(rsu_count), &non_negative_int,
          "a non-negative integer");
  bounded("bus_count", REF(bus_count), &non_negative_int,
          "a non-negative integer");
  {
    Field f = string_field("protocol", REF(protocol));
    for (const routing::ProtocolInfo& info : routing::ProtocolRegistry::all()) {
      if (!f.expected.empty()) f.expected += '|';
      f.expected += info.name;
    }
    f.valid = [](const ScenarioConfig& cfg) {
      return routing::ProtocolRegistry::find(cfg.protocol) != nullptr;
    };
    f.set = [what = f.expected](ScenarioConfig& cfg, const std::string& k,
                                const std::string& v) {
      if (routing::ProtocolRegistry::find(v) == nullptr) bad_value(k, v, what);
      cfg.protocol = v;
    };
    fields.push_back(std::move(f));
  }
  // 0 means an unlimited budget; a negative one meant the same, unsaid.
  bounded("yan_tickets", REF(yan_tickets), &non_negative_int,
          "a non-negative integer");
  // The highway road graph has one intersection per cell.
  bounded("car_cell_m", REF(car_cell_m), +[](double v) { return v >= 1.0; },
          "a finite real number >= 1");
  num("sample_reachability", REF(sample_reachability));
  fields.push_back(enum_field("geometry", REF(geometry),
                              {{"line", GeometryMode::kLine},
                               {"route", GeometryMode::kRoute}}));

  // --- flood.* (link-quality family; routing/linkquality/) -----------------
  fields.push_back(
      enum_field("flood.suppression", REF(flood_suppression),
                 {{"none", routing::FloodSuppression::kNone},
                  {"etx", routing::FloodSuppression::kEtx}}));

  // --- highway.* -----------------------------------------------------------
  bounded("highway.length", REF(highway.length), &highway_length,
          "a finite real number in (0, 1e6]");
  // The model keeps one list per (direction, lane), so the count is bounded.
  bounded("highway.lanes_per_direction", REF(highway.lanes_per_direction),
          +[](int v) { return v >= 1 && v <= 64; }, "an integer in [1, 64]");
  num("highway.bidirectional", REF(highway.bidirectional));
  bounded("highway.lane_width", REF(highway.lane_width), &positive,
          "a finite real number > 0");
  bounded("highway.median_gap", REF(highway.median_gap), &non_negative,
          "a finite real number >= 0");
  bounded("highway.lane_change_prob", REF(highway.lane_change_prob),
          &probability, "a finite real number in [0, 1]");
  bounded("highway.idm.desired_speed", REF(highway.idm.desired_speed),
          &desired_speed, "a finite real number in (0, 100]");
  bounded("highway.idm.desired_speed_stddev",
          REF(highway.idm.desired_speed_stddev), &non_negative,
          "a finite real number >= 0");
  bounded("highway.idm.time_headway", REF(highway.idm.time_headway),
          &non_negative, "a finite real number >= 0");
  bounded("highway.idm.min_gap", REF(highway.idm.min_gap), &non_negative,
          "a finite real number >= 0");
  bounded("highway.idm.max_accel", REF(highway.idm.max_accel), &positive,
          "a finite real number > 0");
  bounded("highway.idm.comfortable_decel", REF(highway.idm.comfortable_decel),
          &positive, "a finite real number > 0");
  bounded("highway.idm.vehicle_length", REF(highway.idm.vehicle_length),
          &positive, "a finite real number > 0");

  // --- manhattan.* ---------------------------------------------------------
  // How many streets a lattice needs depends on the mobility model, so
  // validate_config checks the rest.
  bounded("manhattan.streets_x", REF(manhattan.streets_x), &positive_int,
          "a positive integer");
  bounded("manhattan.streets_y", REF(manhattan.streets_y), &positive_int,
          "a positive integer");
  bounded("manhattan.block", REF(manhattan.block), &lattice_block,
          "a finite real number in (0, 1e5]");
  bounded("manhattan.speed_mean", REF(manhattan.speed_mean), &positive,
          "a finite real number > 0");
  bounded("manhattan.speed_stddev", REF(manhattan.speed_stddev), &non_negative,
          "a finite real number >= 0");
  bounded("manhattan.turn_prob_left", REF(manhattan.turn_prob_left),
          &probability, "a finite real number in [0, 1]");
  bounded("manhattan.turn_prob_right", REF(manhattan.turn_prob_right),
          &probability, "a finite real number in [0, 1]");

  // --- graph.* (graph-constrained mobility) --------------------------------
  bounded("graph.speed_mean", REF(graph.speed_mean), &positive,
          "a finite real number > 0");
  bounded("graph.speed_stddev", REF(graph.speed_stddev), &non_negative,
          "a finite real number >= 0");
  bounded("graph.replan_prob", REF(graph.replan_prob), &probability,
          "a finite real number in [0, 1]");
  num("graph.min_trip_m", REF(graph.min_trip_m));

  // --- traffic.* -----------------------------------------------------------
  bounded("traffic.flows", REF(traffic.flows), &positive_int,
          "a positive integer");
  bounded("traffic.rate_pps", REF(traffic.rate_pps), &packet_rate,
          "a finite real number in (0, 1e6]");
  num("traffic.payload_bytes", REF(traffic.payload_bytes));
  bounded("traffic.start_s", REF(traffic.start_s), &seconds, kSeconds);
  bounded("traffic.stop_s", REF(traffic.stop_s), &seconds, kSeconds);
  num("traffic.min_pair_distance_m", REF(traffic.min_pair_distance_m));

  // --- hello.* (times in seconds) ------------------------------------------
  bounded("hello.interval_s", REF(hello.interval), &positive_time,
          "seconds as a finite real number of at least 1e-6");
  // A jitter of a whole interval or more could re-arm a beacon in the past.
  bounded("hello.jitter_fraction", REF(hello.jitter_fraction),
          +[](double v) { return v >= 0.0 && v < 1.0; },
          "a finite real number in [0, 1)");
  num("hello.expiry_s", REF(hello.expiry));
  num("hello.beacon_bytes", REF(hello.beacon_bytes));

  // --- net.* ---------------------------------------------------------------
  bounded("net.bitrate_bps", REF(net.bitrate_bps), &positive,
          "a finite real number > 0");
  // A negative slot would end every backoff before it began.
  bounded("net.slot_time_s", REF(net.slot_time), &non_negative_time,
          "seconds as a finite real number >= 0");
  bounded("net.contention_window", REF(net.contention_window), &positive_int,
          "a positive integer");
  bounded("net.unicast_retry_limit", REF(net.unicast_retry_limit),
          &non_negative_int, "a non-negative integer");
  // A zero-frame queue drops every frame before it reaches the air.
  bounded("net.queue_capacity", REF(net.queue_capacity),
          +[](std::size_t v) { return v >= 1; }, "a positive integer");
  num("net.phy_overhead_bytes", REF(net.phy_overhead_bytes));
  // A negative wired delay would deliver a backbone frame before it left.
  bounded("net.backbone_delay_s", REF(net.backbone_delay), &non_negative_time,
          "seconds as a finite real number >= 0");
  bounded("net.interference_range_factor", REF(net.interference_range_factor),
          +[](double v) { return v >= 1.0; }, "a finite real number >= 1");

  // --- signal.* ------------------------------------------------------------
  num("signal.tx_power_dbm", REF(signal.tx_power_dbm));
  // The log-distance model divides by both; a zero range has no radio.
  bounded("signal.ref_distance_m", REF(signal.ref_distance_m), &positive,
          "a finite real number > 0");
  num("signal.ref_loss_db", REF(signal.ref_loss_db));
  bounded("signal.path_loss_exponent", REF(signal.path_loss_exponent),
          &positive, "a finite real number > 0");
  bounded("signal.shadowing_sigma_db", REF(signal.shadowing_sigma_db),
          &non_negative, "a finite real number >= 0");
  num("signal.rx_threshold_dbm", REF(signal.rx_threshold_dbm));

  // --- fault.* (deterministic fault injection; sim/fault_plan.h) -----------
  // Faults are on iff there is a plan or a churn rate (FaultConfig::active).
  fields.push_back(string_field("fault.plan", REF(fault.plan)));
  bounded("fault.vehicle_mtbf_s", REF(fault.vehicle_mtbf_s),
          &non_negative_seconds, "seconds as a finite real number >= 0");
  bounded("fault.vehicle_downtime_s", REF(fault.vehicle_downtime_s), &seconds,
          kSeconds);
  bounded("fault.rsu_mtbf_s", REF(fault.rsu_mtbf_s), &non_negative_seconds,
          "seconds as a finite real number >= 0");
  bounded("fault.rsu_downtime_s", REF(fault.rsu_downtime_s), &seconds,
          kSeconds);

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

void validate_config(const ScenarioConfig& cfg) {
  for (const Field& f : fields()) {
    if (f.valid && !f.valid(cfg)) bad_value(f.key, f.get(cfg), f.expected);
  }

  // Each mobility tick takes one number of the uint32 event sequence space.
  if (cfg.duration_s / cfg.mobility_tick_s > 0x1p31) {
    bad_combination("duration_s (" + format_double(cfg.duration_s) +
                    ") / mobility_tick_s (" +
                    format_double(cfg.mobility_tick_s) +
                    ") is more mobility ticks than one run can schedule");
  }

  const auto seconds = [](core::SimTime t) {
    return format_double(t.as_seconds());
  };
  if (cfg.hello.expiry < cfg.hello.interval) {
    bad_combination("hello.expiry_s (" + seconds(cfg.hello.expiry) +
                    ") must be >= hello.interval_s (" +
                    seconds(cfg.hello.interval) + ")");
  }

  const TrafficConfig& t = cfg.traffic;
  if (!(t.stop_s > t.start_s)) {
    bad_combination("traffic.stop_s (" + format_double(t.stop_s) +
                    ") must be > traffic.start_s (" +
                    format_double(t.start_s) + ")");
  }
  // CbrTraffic reserves one uint32 event-sequence block for every packet of
  // every flow, leaving half the sequence space to the rest of the run, and
  // counts each flow's send times by accumulating `t += 1 / rate` up to
  // stop_s, which must advance at every step.
  const double per_flow = (t.stop_s - t.start_s) * t.rate_pps + 2.0;
  if (t.flows * per_flow > 0x1p31 || t.stop_s * t.rate_pps > 0x1p52) {
    bad_combination("traffic.flows (" + std::to_string(t.flows) +
                    ") x traffic.rate_pps (" + format_double(t.rate_pps) +
                    ") over traffic.start_s..traffic.stop_s (" +
                    format_double(t.start_s) + ".." + format_double(t.stop_s) +
                    ") is more packets than one run can schedule");
  }

  const FaultConfig& fault = cfg.fault;
  if (fault.vehicle_mtbf_s > 0.0 && !(fault.vehicle_downtime_s > 0.0)) {
    bad_combination(
        "fault.vehicle_downtime_s must be > 0 when fault.vehicle_mtbf_s > 0");
  }
  if (fault.rsu_mtbf_s > 0.0 && !(fault.rsu_downtime_s > 0.0)) {
    bad_combination(
        "fault.rsu_downtime_s must be > 0 when fault.rsu_mtbf_s > 0");
  }

  const mobility::ManhattanConfig& lattice = cfg.manhattan;
  if (cfg.map.source == MapSource::kFile) {
    if (cfg.mobility != MobilityKind::kGraph &&
        cfg.mobility != MobilityKind::kTrace) {
      bad_combination(
          "map.source=file requires graph or trace mobility — the highway / "
          "manhattan models synthesize their own geometry and would not "
          "drive on the imported map");
    }
    if (cfg.map.file.empty()) {
      bad_combination("map.source=file requires map.file=PATH");
    }
  } else if (cfg.mobility == MobilityKind::kManhattan &&
             (lattice.streets_x < 2 || lattice.streets_y < 2)) {
    bad_combination(
        "manhattan mobility needs manhattan.streets_x >= 2 and "
        "manhattan.streets_y >= 2");
  } else if (cfg.mobility == MobilityKind::kGraph && lattice.streets_x < 2 &&
             lattice.streets_y < 2) {
    // Graph mobility drives the same generated lattice; one street will do.
    bad_combination(
        "a road lattice needs at least 2 intersections "
        "(manhattan.streets_x x manhattan.streets_y)");
  }

  // Flows need two distinct endpoints.
  switch (cfg.mobility) {
    case MobilityKind::kHighway:
      if (cfg.vehicles_per_direction < (cfg.highway.bidirectional ? 1 : 2)) {
        bad_combination(
            "a scenario needs at least 2 vehicles: raise "
            "vehicles_per_direction or set highway.bidirectional");
      }
      break;
    case MobilityKind::kManhattan:
    case MobilityKind::kGraph:
      if (cfg.vehicles < 2) {
        bad_combination("a scenario needs at least 2 vehicles (vehicles=" +
                        std::to_string(cfg.vehicles) + ")");
      }
      break;
    case MobilityKind::kTrace: {
      // Node ids mirror vehicle ids, so the trace must use dense ids.
      const auto& samples = cfg.trace.samples();
      if (samples.size() < 2) {
        bad_combination("mobility=trace needs a trace of at least 2 vehicles");
      }
      if (samples.rbegin()->first != samples.size() - 1) {
        bad_combination("mobility=trace needs dense vehicle ids 0..N-1");
      }
      break;
    }
  }
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

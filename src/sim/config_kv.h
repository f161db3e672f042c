// String key/value view over ScenarioConfig.
//
// Every scalar field of ScenarioConfig (including the nested highway.*,
// manhattan.*, traffic.*, hello.*, net.* and signal.* blocks) is addressable
// by a dotted string key. This is the substrate for `--set key=value` CLI
// overrides, declarative sweep axes over arbitrary knobs, and round-trip
// serialization of a run's full provenance (see experiment.h).
//
// The in-memory mobility trace (`cfg.trace`) is data, not a knob, and is not
// part of the key/value view; serialize_config() documents its presence via
// the derived `trace.vehicles` pseudo-key being absent.
//
// Two deliberate aliases, both ordered so parse_config(serialize_config(cfg))
// restores every field exactly:
//  - `vehicles` reads the Manhattan/graph population but its setter also
//    writes `vehicles_per_direction`, matching the CLI's historic
//    `--vehicles N` behaviour (one knob controls the population of whichever
//    mobility model is active); `vehicles_per_direction` is serialized after
//    `vehicles` and re-settles it.
//  - `map.source=file` also selects graph mobility (an imported map implies
//    driving on it — `vanet_cli run --set map.source=file --set map.file=F`
//    works without a --mobility flag); `mobility` is serialized after
//    `map.source` and re-settles it, e.g. for trace playback over a file map.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace vanet::sim {

/// Checked scalar parsing: the entire string must be consumed, otherwise
/// nullopt; parse_double_checked also refuses inf and nan. Used by
/// config_set and by CLI flag parsing.
std::optional<long long> parse_int_checked(const std::string& s);
std::optional<double> parse_double_checked(const std::string& s);
/// Accepts true/false, 1/0, on/off, yes/no (case-sensitive).
std::optional<bool> parse_bool_checked(const std::string& s);

/// Shortest round-trip decimal formatting; the one formatter shared by
/// config serialization and the machine-readable report sinks.
std::string format_double(double v);

/// All addressable keys, in serialization order.
const std::vector<std::string>& config_keys();
bool config_has_key(const std::string& key);

/// Read one field as a string. Throws std::invalid_argument for unknown keys.
std::string config_get(const ScenarioConfig& cfg, const std::string& key);

/// Write one field from a string. Throws std::invalid_argument for unknown
/// keys or unparseable values (the message names both key and value).
void config_set(ScenarioConfig& cfg, const std::string& key,
                const std::string& value);

/// "key=value\n" lines for every key, in config_keys() order. Numeric values
/// use shortest round-trip formatting, so parse_config inverts this exactly.
std::string serialize_config(const ScenarioConfig& cfg);

/// Parse serialize_config output (or any subset of "key=value" lines; blank
/// lines and '#' comments are skipped). Unknown keys or bad values throw
/// std::invalid_argument.
ScenarioConfig parse_config(const std::string& text);

/// 64-bit FNV-1a of serialize_config(cfg), as 16 hex digits. Two configs with
/// equal digests are behaviourally identical (up to the mobility trace).
std::string config_digest(const ScenarioConfig& cfg);

}  // namespace vanet::sim

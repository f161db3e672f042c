// Checked scalar parsing, the one parser for every text input: config keys,
// CLI flags, the map and trace CSVs and fault plans.
#pragma once

#include <optional>
#include <string>

namespace vanet::core {

/// The entire string must be consumed, otherwise nullopt: no surrounding
/// whitespace, no leading '+'. parse_double_checked also refuses inf, nan
/// and out-of-range values.
std::optional<long long> parse_int_checked(const std::string& s);
std::optional<double> parse_double_checked(const std::string& s);

}  // namespace vanet::core

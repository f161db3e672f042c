#include "core/parse.h"

#include <charconv>
#include <cmath>

namespace vanet::core {

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

}  // namespace vanet::core

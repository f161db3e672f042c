// Simulation time as a strong integer-microsecond type.
//
// Using an integral representation keeps event ordering exact and deterministic
// (no floating-point drift), which matters for reproducible experiments.
// A single type is used both for time points and durations, mirroring ns-3's
// `Time`; the arithmetic that makes sense for both is provided.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>

namespace vanet::core {

/// A point in simulation time or a duration, with microsecond resolution.
class SimTime {
 public:
  constexpr SimTime() = default;

  /// Named constructors.
  static constexpr SimTime micros(std::int64_t us) { return SimTime{us}; }
  static constexpr SimTime millis(std::int64_t ms) { return SimTime{ms * 1000}; }
  static constexpr SimTime seconds(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e6)};
  }
  /// False for inf, nan and values whose microseconds overflow int64.
  static constexpr bool fits_seconds(double s) {
    return s * 1e6 >= -0x1p63 && s * 1e6 < 0x1p63;
  }
  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  /// Accessors.
  constexpr std::int64_t as_micros() const { return us_; }
  constexpr double as_seconds() const { return static_cast<double>(us_) * 1e-6; }
  constexpr double as_millis() const { return static_cast<double>(us_) * 1e-3; }

  constexpr bool is_negative() const { return us_ < 0; }

  /// Arithmetic.
  constexpr SimTime operator+(SimTime o) const { return SimTime{us_ + o.us_}; }
  constexpr SimTime operator-(SimTime o) const { return SimTime{us_ - o.us_}; }
  constexpr SimTime operator*(std::int64_t k) const { return SimTime{us_ * k}; }
  constexpr SimTime operator*(double k) const {
    return SimTime{static_cast<std::int64_t>(static_cast<double>(us_) * k)};
  }
  constexpr SimTime& operator+=(SimTime o) {
    us_ += o.us_;
    return *this;
  }

  constexpr auto operator<=>(const SimTime&) const = default;

 private:
  constexpr explicit SimTime(std::int64_t us) : us_{us} {}
  std::int64_t us_ = 0;
};

}  // namespace vanet::core

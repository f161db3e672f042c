// 2-D vector used for positions, velocities and accelerations.
#pragma once

#include <cmath>

namespace vanet::core {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double k) const { return {x * k, y * k}; }
  constexpr Vec2 operator/(double k) const { return {x / k, y / k}; }
  constexpr Vec2& operator+=(Vec2 o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  constexpr bool operator==(const Vec2&) const = default;

  constexpr double dot(Vec2 o) const { return x * o.x + y * o.y; }
  /// z-component of the 3-D cross product; sign gives relative orientation.
  constexpr double cross(Vec2 o) const { return x * o.y - y * o.x; }
  double norm() const { return std::sqrt(x * x + y * y); }
  constexpr double norm_sq() const { return x * x + y * y; }

  /// Unit vector in this direction; the zero vector maps to itself.
  Vec2 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec2{x / n, y / n} : Vec2{};
  }
};

/// Distance from point `p` to the segment [a, b].
inline double distance_to_segment(Vec2 p, Vec2 a, Vec2 b) {
  const Vec2 ab = b - a;
  const double len_sq = ab.norm_sq();
  if (len_sq <= 0.0) return (p - a).norm();
  double t = (p - a).dot(ab) / len_sq;
  t = t < 0.0 ? 0.0 : (t > 1.0 ? 1.0 : t);
  return (p - (a + ab * t)).norm();
}

}  // namespace vanet::core

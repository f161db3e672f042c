// Dense row-major array of square grid cells over a fixed box: the one cell
// mechanism of the spatial indexes (core::SpatialGrid, net::ChannelState and
// map::SegmentIndex).
//
// Cell (cx, cy) covers [cx*size, (cx+1)*size) x [cy*size, (cy+1)*size), with
// cx = floor(x / size) as grid_cell_coord computes it. The array holds the
// cells of the box given at construction and never resizes: a point outside
// it is clamped into the nearest border cell, and a query range is clamped
// the same way. Clamping is monotone, so a point within a query range always
// lands in a cell the clamped range visits: candidate sets stay supersets of
// every exact answer, whatever the box. The box only decides how evenly
// points spread over cells, never which points a query finds.
//
// Clamping works on the floored quotient in floating point before any
// integer conversion, so huge or non-finite coordinates still map to a valid
// cell (NaN goes to the first one) instead of overflowing a cast.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/assert.h"
#include "core/vec2.h"

namespace vanet::core {

/// Cell coordinate of scalar `v` for the given cell size.
inline std::int64_t grid_cell_coord(double v, double cell_size) {
  return static_cast<std::int64_t>(std::floor(v / cell_size));
}

/// Axis-aligned box; default-constructed it is empty (lo > hi).
struct Box {
  Vec2 lo{std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::infinity()};
  Vec2 hi{-std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};

  bool empty() const { return !(lo.x <= hi.x && lo.y <= hi.y); }
  /// Grow to cover `p`.
  void expand(Vec2 p) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
};

template <typename Cell>
class CellArray {
 public:
  /// Upper bound on the number of cells: a box that would need more (a far
  /// outlier in a trace, say) gets proportionally larger cells instead. Only
  /// the spread of points over cells changes, never a query's answer.
  static constexpr std::size_t kMaxCells = std::size_t{1} << 16;

  /// Cells of side `cell_size` covering `box`; an empty box gets the single
  /// cell containing the origin.
  CellArray(double cell_size, const Box& box) : size_{cell_size} {
    VANET_ASSERT(cell_size > 0.0);
    VANET_ASSERT_MSG(box.empty() || (std::isfinite(box.lo.x) &&
                                     std::isfinite(box.lo.y) &&
                                     std::isfinite(box.hi.x) &&
                                     std::isfinite(box.hi.y)),
                     "cell array over a non-finite box");
    const Box b = box.empty() ? Box{{0.0, 0.0}, {0.0, 0.0}} : box;
    for (;;) {
      x0_ = std::floor(b.lo.x / size_);
      y0_ = std::floor(b.lo.y / size_);
      const double nx = std::floor(b.hi.x / size_) - x0_ + 1.0;
      const double ny = std::floor(b.hi.y / size_) - y0_ + 1.0;
      if (nx * ny <= static_cast<double>(kMaxCells)) {
        cols_ = static_cast<std::size_t>(nx);
        rows_ = static_cast<std::size_t>(ny);
        break;
      }
      size_ *= 2.0;
    }
    cells_.resize(cols_ * rows_);
  }

  /// The cell side: the requested one, or larger under kMaxCells.
  double cell_size() const { return size_; }

  /// Row-major index of the (clamped) cell containing `p`.
  std::size_t index(Vec2 p) const { return row(p.y) * cols_ + col(p.x); }

  Cell& operator[](std::size_t i) { return cells_[i]; }

  /// The cell at unclamped cell coordinates (cx, cy), or null outside the
  /// array. For walks that must not revisit a border cell.
  const Cell* find(std::int64_t cx, std::int64_t cy) const {
    const double c = static_cast<double>(cx) - x0_;
    const double r = static_cast<double>(cy) - y0_;
    if (c < 0.0 || r < 0.0 || c >= static_cast<double>(cols_) ||
        r >= static_cast<double>(rows_)) {
      return nullptr;
    }
    return &cells_[static_cast<std::size_t>(r) * cols_ +
                   static_cast<std::size_t>(c)];
  }
  Cell* find(std::int64_t cx, std::int64_t cy) {
    return const_cast<Cell*>(std::as_const(*this).find(cx, cy));
  }

  /// Call `fn(cell)` on every cell the box [lo, hi] touches, clamped, in
  /// row-major order; stops early once `fn` returns true.
  template <typename Fn>
  void for_each(Vec2 lo, Vec2 hi, Fn&& fn) const {
    const std::size_t c0 = col(lo.x), c1 = col(hi.x);
    const std::size_t r0 = row(lo.y), r1 = row(hi.y);
    for (std::size_t r = r0; r <= r1; ++r) {
      const Cell* line = &cells_[r * cols_];
      for (std::size_t c = c0; c <= c1; ++c) {
        if (fn(line[c])) return;
      }
    }
  }

 private:
  /// Column of `x` / row of `y`, clamped into the array.
  std::size_t col(double x) const {
    return clamp(std::floor(x / size_) - x0_, cols_);
  }
  std::size_t row(double y) const {
    return clamp(std::floor(y / size_) - y0_, rows_);
  }
  static std::size_t clamp(double v, std::size_t n) {
    // `!(v > 0)` also sends NaN to the first cell.
    if (!(v > 0.0)) return 0;
    const double last = static_cast<double>(n - 1);
    return v >= last ? n - 1 : static_cast<std::size_t>(v);
  }

  double size_;
  double x0_ = 0.0;  ///< cell coordinate of column 0 (an integer value)
  double y0_ = 0.0;  ///< cell coordinate of row 0
  std::size_t cols_ = 1;
  std::size_t rows_ = 1;
  std::vector<Cell> cells_;
};

}  // namespace vanet::core

#include "map/segment_index.h"

#include <algorithm>
#include <limits>

#include "core/assert.h"

namespace vanet::map {

namespace {

double default_cell(const RoadGraph& graph, double cell_size_m) {
  VANET_ASSERT_MSG(graph.segment_count() > 0,
                   "segment index over an empty graph");
  return cell_size_m > 0.0
             ? cell_size_m
             : std::max(1.0, graph.total_length() /
                                 static_cast<double>(graph.segment_count()));
}

}  // namespace

SegmentIndex::SegmentIndex(const RoadGraph& graph, double cell_size_m)
    : graph_{graph},
      cells_{default_cell(graph, cell_size_m),
             core::Box{graph.bbox_min(), graph.bbox_max()}},
      cell_{cells_.cell_size()} {
  bool first = true;
  for (std::size_t s = 0; s < graph.segment_count(); ++s) {
    const auto [a, b] = graph.segment_ends(static_cast<int>(s));
    const core::Vec2 pa = graph.intersection_pos(a);
    const core::Vec2 pb = graph.intersection_pos(b);
    const std::int64_t x0 = core::grid_cell_coord(std::min(pa.x, pb.x), cell_);
    const std::int64_t x1 = core::grid_cell_coord(std::max(pa.x, pb.x), cell_);
    const std::int64_t y0 = core::grid_cell_coord(std::min(pa.y, pb.y), cell_);
    const std::int64_t y1 = core::grid_cell_coord(std::max(pa.y, pb.y), cell_);
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      for (std::int64_t cx = x0; cx <= x1; ++cx) {
        cells_.find(cx, cy)->push_back(static_cast<std::int32_t>(s));
      }
    }
    if (first) {
      cx_min_ = x0, cx_max_ = x1, cy_min_ = y0, cy_max_ = y1;
      first = false;
    } else {
      cx_min_ = std::min(cx_min_, x0);
      cx_max_ = std::max(cx_max_, x1);
      cy_min_ = std::min(cy_min_, y0);
      cy_max_ = std::max(cy_max_, y1);
    }
  }
}

int SegmentIndex::linear_scan(core::Vec2 pos) const {
  return graph_.segment_of_position(pos);
}

int SegmentIndex::nearest_segment(core::Vec2 pos) const {
  const std::int64_t cx = core::grid_cell_coord(pos.x, cell_);
  const std::int64_t cy = core::grid_cell_coord(pos.y, cell_);
  // Positions far outside the indexed region would walk many empty rings
  // before touching an occupied cell; the plain scan is cheaper there.
  if (cx < cx_min_ - 2 || cx > cx_max_ + 2 || cy < cy_min_ - 2 ||
      cy > cy_max_ + 2) {
    return linear_scan(pos);
  }

  int best = -1;
  double best_dist = std::numeric_limits<double>::infinity();
  const auto consider_cell = [&](std::int64_t x, std::int64_t y) {
    const auto* cell = cells_.find(x, y);
    if (cell == nullptr) return;
    for (const std::int32_t s : *cell) {
      const auto [a, b] = graph_.segment_ends(s);
      const double d = core::distance_to_segment(
          pos, graph_.intersection_pos(a), graph_.intersection_pos(b));
      // Same selection rule as the linear scan: lowest id among the minima.
      // (Segments span several cells, so the same id may be evaluated twice;
      // the strict comparisons make re-evaluation harmless.)
      if (d < best_dist || (d == best_dist && s < best)) {
        best_dist = d;
        best = s;
      }
    }
  };

  // `pos` lies inside cell (cx, cy), so anything in a cell at Chebyshev ring
  // r is at least (r-1)*cell_ metres away. Stop only when the best so far is
  // *strictly* below that bound: an unvisited segment may still tie exactly
  // at the bound, and the tie must be resolved by id, not by visit order.
  const std::int64_t max_ring =
      std::max({cx - cx_min_, cx_max_ - cx, cy - cy_min_, cy_max_ - cy,
                std::int64_t{0}}) +
      1;
  for (std::int64_t r = 0; r <= max_ring; ++r) {
    if (best >= 0 && best_dist < static_cast<double>(r - 1) * cell_) break;
    if (r == 0) {
      consider_cell(cx, cy);
      continue;
    }
    for (std::int64_t x = cx - r; x <= cx + r; ++x) {
      consider_cell(x, cy - r);
      consider_cell(x, cy + r);
    }
    for (std::int64_t y = cy - r + 1; y <= cy + r - 1; ++y) {
      consider_cell(cx - r, y);
      consider_cell(cx + r, y);
    }
  }
  VANET_ASSERT_MSG(best >= 0, "segment index found no candidate");
  return best;
}

}  // namespace vanet::map

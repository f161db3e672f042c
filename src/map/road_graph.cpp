#include "map/road_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "core/assert.h"

namespace vanet::map {

RoadGraph::RoadGraph(int nx, int ny, double block) {
  VANET_ASSERT(nx >= 1 && ny >= 1 && (nx >= 2 || ny >= 2));
  VANET_ASSERT(block > 0.0);
  grid_nx_ = nx;
  grid_ny_ = ny;
  grid_block_ = block;
  const auto index_of = [nx](int ix, int iy) { return iy * nx + ix; };
  for (int iy = 0; iy < ny; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      add_intersection({static_cast<double>(ix) * block,
                        static_cast<double>(iy) * block});
    }
  }
  // Segment enumeration order is load-bearing (density-oracle ids, digest
  // stability): per intersection, the +x segment precedes the +y segment.
  for (int iy = 0; iy < ny; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      if (ix + 1 < nx) {
        // Lattice segments have exactly `block` length by construction;
        // storing it verbatim avoids FP drift from (ix+1)*b - ix*b.
        add_segment_with_length(index_of(ix, iy), index_of(ix + 1, iy), block);
      }
      if (iy + 1 < ny) {
        add_segment_with_length(index_of(ix, iy), index_of(ix, iy + 1), block);
      }
    }
  }
}

int RoadGraph::add_intersection(core::Vec2 pos) {
  if (nodes_.empty()) {
    bbox_min_ = bbox_max_ = pos;
  } else {
    bbox_min_ = {std::min(bbox_min_.x, pos.x), std::min(bbox_min_.y, pos.y)};
    bbox_max_ = {std::max(bbox_max_.x, pos.x), std::max(bbox_max_.y, pos.y)};
  }
  nodes_.push_back(pos);
  adj_.emplace_back();
  return static_cast<int>(nodes_.size()) - 1;
}

int RoadGraph::add_segment(int a, int b) {
  VANET_ASSERT(a >= 0 && a < intersection_count());
  VANET_ASSERT(b >= 0 && b < intersection_count());
  return add_segment_with_length(a, b, (nodes_[static_cast<std::size_t>(a)] -
                                        nodes_[static_cast<std::size_t>(b)])
                                           .norm());
}

int RoadGraph::add_segment_with_length(int a, int b, double length) {
  VANET_ASSERT_MSG(a != b, "road segment must join distinct intersections");
  VANET_ASSERT_MSG(segment_between(a, b) == -1, "duplicate road segment");
  VANET_ASSERT(length > 0.0);
  const int seg = static_cast<int>(segments_.size());
  segments_.emplace_back(std::min(a, b), std::max(a, b));
  lengths_.push_back(length);
  total_length_ += length;
  adj_[static_cast<std::size_t>(a)].emplace_back(b, seg);
  adj_[static_cast<std::size_t>(b)].emplace_back(a, seg);
  return seg;
}

core::Vec2 RoadGraph::intersection_pos(int idx) const {
  VANET_ASSERT(idx >= 0 && idx < intersection_count());
  return nodes_[static_cast<std::size_t>(idx)];
}

int RoadGraph::nearest_intersection(core::Vec2 pos) const {
  VANET_ASSERT_MSG(!nodes_.empty(), "nearest_intersection on empty graph");
  if (is_grid()) {
    // Closed form on lattices: clamp the rounded lattice coordinates.
    const int ix = std::clamp(
        static_cast<int>(std::lround(pos.x / grid_block_)), 0, grid_nx_ - 1);
    const int iy = std::clamp(
        static_cast<int>(std::lround(pos.y / grid_block_)), 0, grid_ny_ - 1);
    return iy * grid_nx_ + ix;
  }
  int best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const double d = (nodes_[i] - pos).norm_sq();
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int>(i);
    }
  }
  return best;
}

double RoadGraph::segment_length(int seg) const {
  return lengths_.at(static_cast<std::size_t>(seg));
}

std::pair<int, int> RoadGraph::segment_ends(int seg) const {
  return segments_.at(static_cast<std::size_t>(seg));
}

int RoadGraph::segment_between(int a, int b) const {
  for (const auto& [nbr, seg] : adj_.at(static_cast<std::size_t>(a))) {
    if (nbr == b) return seg;
  }
  return -1;
}

int RoadGraph::segment_of_position(core::Vec2 pos) const {
  VANET_ASSERT_MSG(!segments_.empty(), "segment_of_position on empty graph");
  int best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const auto [a, b] = segments_[s];
    const double d = core::distance_to_segment(pos, intersection_pos(a),
                                               intersection_pos(b));
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int>(s);
    }
  }
  return best;
}

int RoadGraph::degree(int idx) const {
  return static_cast<int>(adj_.at(static_cast<std::size_t>(idx)).size());
}

const std::vector<std::pair<int, int>>& RoadGraph::adjacency(int idx) const {
  return adj_.at(static_cast<std::size_t>(idx));
}

std::vector<int> RoadGraph::shortest_path(
    int from, int to, const std::function<double(int)>& cost) const {
  const int n = intersection_count();
  VANET_ASSERT(from >= 0 && from < n && to >= 0 && to < n);
  std::vector<double> dist(static_cast<std::size_t>(n),
                           std::numeric_limits<double>::infinity());
  std::vector<int> prev(static_cast<std::size_t>(n), -1);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(from)] = 0.0;
  heap.emplace(0.0, from);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (u == to) break;
    for (const auto& [v, seg] : adj_[static_cast<std::size_t>(u)]) {
      const double w = std::max(0.0, cost(seg));
      const double nd = d + w;
      if (nd < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = nd;
        prev[static_cast<std::size_t>(v)] = u;
        heap.emplace(nd, v);
      }
    }
  }
  if (!std::isfinite(dist[static_cast<std::size_t>(to)])) return {};
  std::vector<int> path;
  for (int v = to; v != -1; v = prev[static_cast<std::size_t>(v)]) {
    path.push_back(v);
    if (v == from) break;
  }
  std::reverse(path.begin(), path.end());
  if (path.empty() || path.front() != from) return {};
  return path;
}

std::vector<int> RoadGraph::shortest_path_by_length(int from, int to) const {
  return shortest_path(from, to, [this](int seg) { return segment_length(seg); });
}

namespace {

/// True when the open interiors of [a1,b1] and [a2,b2] properly cross.
/// Collinear / endpoint-touching cases return false — those are handled by
/// the distance and angle tests in the caller, which are conservative.
bool segments_properly_cross(core::Vec2 a1, core::Vec2 b1, core::Vec2 a2,
                             core::Vec2 b2) {
  const auto side = [](core::Vec2 p, core::Vec2 q, core::Vec2 r) {
    return (q - p).cross(r - p);
  };
  const double d1 = side(a2, b2, a1);
  const double d2 = side(a2, b2, b1);
  const double d3 = side(a1, b1, a2);
  const double d4 = side(a1, b1, b2);
  return ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0)) &&
         ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0));
}

/// Min distance between the closed segments (0 when they properly cross).
double segment_segment_distance(core::Vec2 a1, core::Vec2 b1, core::Vec2 a2,
                                core::Vec2 b2) {
  if (segments_properly_cross(a1, b1, a2, b2)) return 0.0;
  return std::min(std::min(core::distance_to_segment(a1, a2, b2),
                           core::distance_to_segment(b1, a2, b2)),
                  std::min(core::distance_to_segment(a2, a1, b1),
                           core::distance_to_segment(b2, a1, b1)));
}

}  // namespace

std::vector<bool> ambiguous_interior_segments(const RoadGraph& graph) {
  constexpr double kClearanceM = 0.01;  // a crossing this close is ambiguous
  constexpr double kMinSin = 0.01;      // so is an angle this shallow
  const std::size_t n = graph.segment_count();
  std::vector<bool> flagged(n, false);
  // Lattice segments meet only at right angles and cross nowhere, so the
  // O(segments^2) pair loop below would flag nothing.
  if (graph.is_grid()) return flagged;
  std::vector<core::Vec2> pa(n), pb(n);
  for (std::size_t s = 0; s < n; ++s) {
    const auto [a, b] = graph.segment_ends(static_cast<int>(s));
    pa[s] = graph.intersection_pos(a);
    pb[s] = graph.intersection_pos(b);
  }
  for (std::size_t s = 0; s < n; ++s) {
    const auto [sa, sb] = graph.segment_ends(static_cast<int>(s));
    for (std::size_t t = s + 1; t < n; ++t) {
      // Inflated-bbox prefilter: pairs further apart than the clearance can
      // never tie a query within it.
      if (std::min(pa[s].x, pb[s].x) > std::max(pa[t].x, pb[t].x) + kClearanceM ||
          std::min(pa[t].x, pb[t].x) > std::max(pa[s].x, pb[s].x) + kClearanceM ||
          std::min(pa[s].y, pb[s].y) > std::max(pa[t].y, pb[t].y) + kClearanceM ||
          std::min(pa[t].y, pb[t].y) > std::max(pa[s].y, pb[s].y) + kClearanceM) {
        continue;
      }
      const auto [ta, tb] = graph.segment_ends(static_cast<int>(t));
      bool conflict = false;
      const int shared = (sa == ta || sa == tb) ? sa
                         : (sb == ta || sb == tb) ? sb
                                                  : -1;
      if (shared >= 0) {
        // Incident pair: only a near-collinear departure *on the same side*
        // lets one segment's interior shadow the other (overlap). A straight
        // road continuing through the intersection (opposite sides, dot < 0)
        // is safe: an interior point of one segment keeps the full distance
        // to the shared node from the other. Right-angle lattices never
        // trigger either branch.
        const core::Vec2 p = graph.intersection_pos(shared);
        const core::Vec2 u = (graph.intersection_pos(sa == shared ? sb : sa) - p)
                                 .normalized();
        const core::Vec2 v = (graph.intersection_pos(ta == shared ? tb : ta) - p)
                                 .normalized();
        conflict = std::abs(u.cross(v)) < kMinSin && u.dot(v) > 0.0;
        // A far endpoint sitting on (or hugging) the other segment's interior
        // is a T-junction modelled without a node — also ambiguous.
        if (!conflict) {
          const core::Vec2 s_far = graph.intersection_pos(sa == shared ? sb : sa);
          const core::Vec2 t_far = graph.intersection_pos(ta == shared ? tb : ta);
          conflict = core::distance_to_segment(s_far, pa[t], pb[t]) < kClearanceM ||
                     core::distance_to_segment(t_far, pa[s], pb[s]) < kClearanceM;
        }
      } else {
        conflict =
            segment_segment_distance(pa[s], pb[s], pa[t], pb[t]) < kClearanceM;
      }
      if (conflict) {
        flagged[s] = true;
        flagged[t] = true;
      }
    }
  }
  return flagged;
}

void SegmentDensityOracle::set_count(int seg, double vehicles) {
  counts_.at(static_cast<std::size_t>(seg)) = vehicles;
}

double SegmentDensityOracle::count(int seg) const {
  return counts_.at(static_cast<std::size_t>(seg));
}

}  // namespace vanet::map

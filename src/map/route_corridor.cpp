#include "map/route_corridor.h"

#include <algorithm>
#include <limits>

#include "core/assert.h"

namespace vanet::map {
namespace {

// Pre-reject slack. The axis gaps to a bounding box are computed with a
// handful of subtractions/multiplications, each exact to 0.5 ulp, while the
// exact test compares a norm() (sqrt of a dot product). Inflating the
// half-width budget by ~1e-12 relative makes the box test err only on the
// keep-the-candidate side, so skipping is provably safe — the same idiom as
// kAxisSlack in net/channel_state.cpp.
constexpr double kBoxSlack = 1.0 + 1e-12;

// Squared axis-distance from `pos` to the box [lo, hi] (0 inside).
double box_gap_sq(core::Vec2 pos, core::Vec2 lo, core::Vec2 hi) {
  const double dx = std::max({0.0, lo.x - pos.x, pos.x - hi.x});
  const double dy = std::max({0.0, lo.y - pos.y, pos.y - hi.y});
  return dx * dx + dy * dy;
}

}  // namespace

void RouteCorridor::add_segment(int seg) {
  if (std::find(segments_.begin(), segments_.end(), seg) != segments_.end()) {
    return;
  }
  const auto [ia, ib] = graph_->segment_ends(seg);
  const core::Vec2 a = graph_->intersection_pos(ia);
  const core::Vec2 b = graph_->intersection_pos(ib);
  if (segments_.empty()) {
    bbox_min_ = bbox_max_ = a;
  }
  bbox_min_.x = std::min({bbox_min_.x, a.x, b.x});
  bbox_min_.y = std::min({bbox_min_.y, a.y, b.y});
  bbox_max_.x = std::max({bbox_max_.x, a.x, b.x});
  bbox_max_.y = std::max({bbox_max_.y, a.y, b.y});
  segments_.push_back(seg);
  ends_.push_back({a, b});
}

int RouteCorridor::entry_intersection(const RoadGraph& graph, int segment,
                                      core::Vec2 pos) {
  const auto [a, b] = graph.segment_ends(segment);  // a < b
  const double da = (graph.intersection_pos(a) - pos).norm_sq();
  const double db = (graph.intersection_pos(b) - pos).norm_sq();
  return da <= db ? a : b;
}

RouteCorridor RouteCorridor::between(const RoadGraph& graph, core::Vec2 src,
                                     core::Vec2 dst, int src_seg,
                                     int dst_seg) {
  VANET_ASSERT_MSG(src_seg >= 0 && dst_seg >= 0,
                   "corridor endpoints need resolved segment ids");
  RouteCorridor c;
  c.graph_ = &graph;
  const std::vector<int> route =
      graph.shortest_path_by_length(entry_intersection(graph, src_seg, src),
                                    entry_intersection(graph, dst_seg, dst));
  c.route_found_ = !route.empty();
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    c.add_segment(graph.segment_between(route[i], route[i + 1]));
  }
  // Mid-block endpoints must be inside their own corridor even when the
  // route enters the graph at the far end of their street.
  c.add_segment(src_seg);
  c.add_segment(dst_seg);
  return c;
}

double RouteCorridor::distance_to(core::Vec2 pos) const {
  double best = std::numeric_limits<double>::infinity();
  for (const SegEnds& e : ends_) {
    best = std::min(best, core::distance_to_segment(pos, e.a, e.b));
  }
  return best;
}

bool RouteCorridor::contains(core::Vec2 pos, double half_width) const {
  if (ends_.empty()) return false;
  const double budget_sq = half_width * half_width * kBoxSlack;
  if (box_gap_sq(pos, bbox_min_, bbox_max_) > budget_sq) return false;
  for (const SegEnds& e : ends_) {
    const core::Vec2 lo{std::min(e.a.x, e.b.x), std::min(e.a.y, e.b.y)};
    const core::Vec2 hi{std::max(e.a.x, e.b.x), std::max(e.a.y, e.b.y)};
    if (box_gap_sq(pos, lo, hi) > budget_sq) continue;
    if (core::distance_to_segment(pos, e.a, e.b) <= half_width) return true;
  }
  return false;
}

}  // namespace vanet::map

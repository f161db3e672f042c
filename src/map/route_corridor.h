// Road-route corridors: the map query the geometry protocols forward along.
//
// A RouteCorridor is the set of road segments on the length-shortest graph
// route between two positions — the road-network analogue of the straight
// src→dst line the zone/grid protocols historically flooded around. On an
// imported (non-lattice) map a straight-line corridor cuts across blocks with
// no roads in them; the route corridor follows streets that actually connect
// the endpoints, so "inside the corridor" means "near a road that leads
// there".
//
// Construction (`between`): take each position's nearest segment, resolved
// by the caller (grid-indexed — no O(intersections) scan), enter the graph
// at that street's closer endpoint (`entry_intersection`), run Dijkstra over
// physical segment lengths between the two entries, and collect the route's
// segments plus the endpoint segments themselves (so positions mid-block are
// always covered by their own street). When the endpoints live in different
// graph components there is no route — `route_found()` is false and callers
// fall back to their straight-line geometry.
//
// Determinism: segment order is route order (endpoint segments appended), all
// queries inherit the lowest-id tie-breaks of RoadGraph/SegmentIndex, and the
// corridor holds only segment ids — two builds from equal inputs are
// bit-identical. The corridor references the graph and must not outlive it.
//
// Admission cost: `contains` is the per-RREQ hot call of the route-geometry
// protocols (one test per received flood copy). It short-circuits through a
// corridor-level bounding box and per-segment boxes before any exact
// point-to-segment distance, with conservative slack so the boolean answer
// is exactly `distance_to(pos) <= half_width` — the same contract
// `distance_to` (kept exact, no prefilter) verifies in the property tests.
#pragma once

#include <vector>

#include "core/vec2.h"
#include "map/road_graph.h"

namespace vanet::map {

class RouteCorridor {
 public:
  /// Empty corridor; distance_to() is infinite and route_found() is false.
  RouteCorridor() = default;

  /// Corridor between `src` and `dst` (see header comment). `graph` must
  /// outlive the corridor. `src_seg`/`dst_seg` are the endpoints' resolved
  /// segments (a SegmentSnapshot answer or an id stamped into a packet
  /// header): each MUST be the nearest segment to its position, which is
  /// asserted non-negative and not re-derived.
  static RouteCorridor between(const RoadGraph& graph, core::Vec2 src,
                               core::Vec2 dst, int src_seg, int dst_seg);

  /// Where a position enters the graph: the endpoint of `segment` closer to
  /// `pos` (lower intersection id on exact ties). Cheap — two distance
  /// computations — which is what lets CorridorCache detect endpoint
  /// migration per packet without scanning the graph.
  static int entry_intersection(const RoadGraph& graph, int segment,
                                core::Vec2 pos);

  /// False when the endpoints are in different graph components (the
  /// corridor then holds only the two endpoint segments) or default-built.
  bool route_found() const { return route_found_; }

  /// Corridor segment ids: route order, then endpoint segments not already on
  /// the route.
  const std::vector<int>& segments() const { return segments_; }

  /// Distance from `pos` to the nearest corridor segment; infinity when the
  /// corridor is empty. Always exact — no prefilter.
  double distance_to(core::Vec2 pos) const;

  /// Exactly distance_to(pos) <= half_width, but served through bounding-box
  /// pre-rejects and an early-exit scan (see header comment).
  bool contains(core::Vec2 pos, double half_width) const;

 private:
  void add_segment(int seg);

  const RoadGraph* graph_ = nullptr;
  std::vector<int> segments_;
  /// Endpoint positions of segments_[i], cached at build so admission never
  /// re-derives them through RoadGraph per query.
  struct SegEnds {
    core::Vec2 a, b;
  };
  std::vector<SegEnds> ends_;
  // Axis-aligned bounds over all cached endpoints (empty corridor: min > max).
  core::Vec2 bbox_min_{1.0, 1.0};
  core::Vec2 bbox_max_{0.0, 0.0};
  bool route_found_ = false;
};

}  // namespace vanet::map

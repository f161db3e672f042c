// Road-network topology shared by mobility and routing.
//
// A RoadGraph is an undirected graph of intersections (2-D positions, metres)
// joined by straight road segments. It is the single source of road topology
// in a scenario: GraphMobility drives vehicles along its edges, CAR routes
// anchor paths over it, and the per-segment density oracle is indexed by its
// segment ids. Build one through the generators in map/builders.h — a
// Manhattan lattice (`make_grid`, also reachable through the legacy
// `RoadGraph(nx, ny, block)` constructor) or an edge-list CSV import
// (`load_edge_list_csv`) — or incrementally via add_intersection/add_segment.
//
// Determinism contract: intersection and segment ids are assigned in
// insertion order, adjacency lists preserve insertion order, and every query
// breaks distance ties toward the lowest id. Two builds from the same input
// are therefore bit-identical, which the golden-report digests rely on.
//
// The SegmentDensityOracle carries per-segment vehicle-count estimates. In
// the real CAR protocol these statistics are disseminated by the vehicles
// themselves; the scenario updates the oracle from ground truth once per
// second instead — a deliberate substitution that isolates the routing
// policy from the estimation error of the statistics channel.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/vec2.h"

namespace vanet::map {

class RoadGraph {
 public:
  /// Empty graph; populate with add_intersection/add_segment.
  RoadGraph() = default;

  /// Manhattan lattice: `nx` x `ny` intersections spaced `block` metres
  /// apart, intersection (ix, iy) at position (ix*block, iy*block) with id
  /// iy*nx + ix. A 1 x N lattice degenerates to a single highway. Lattice
  /// graphs keep closed-form nearest-intersection lookup (see is_grid()).
  RoadGraph(int nx, int ny, double block);

  /// Append an intersection at `pos`; returns its id (insertion order).
  int add_intersection(core::Vec2 pos);

  /// Append the segment joining intersections `a` and `b`; returns its id.
  /// Asserts on self-loops, duplicate edges and out-of-range endpoints.
  /// Segment length is the Euclidean endpoint distance.
  int add_segment(int a, int b);

  int intersection_count() const { return static_cast<int>(nodes_.size()); }
  core::Vec2 intersection_pos(int idx) const;
  /// Intersection closest to `pos`; lowest id wins distance ties. O(1) on
  /// lattice graphs, O(intersections) otherwise.
  int nearest_intersection(core::Vec2 pos) const;

  std::size_t segment_count() const { return segments_.size(); }
  /// Length of segment `seg` in metres. Exactly `block` on lattice graphs.
  double segment_length(int seg) const;
  /// Endpoints (intersection indices, lower first) of segment `seg`.
  std::pair<int, int> segment_ends(int seg) const;
  /// Index of the segment joining adjacent intersections a and b; -1 if none.
  int segment_between(int a, int b) const;
  /// Segment whose geometry is closest to `pos` (exact linear scan; lowest id
  /// wins ties). For repeated queries build a map::SegmentIndex instead.
  int segment_of_position(core::Vec2 pos) const;

  /// Adjacent intersections of `idx`, sorted ascending.
  std::vector<int> neighbors_of(int idx) const;
  /// Degree of intersection `idx`.
  int degree(int idx) const;
  /// Adjacency of `idx` in insertion order: (neighbor, segment id) pairs.
  const std::vector<std::pair<int, int>>& adjacency(int idx) const;

  /// Dijkstra with per-segment cost; returns the intersection sequence from
  /// `from` to `to` (inclusive). Empty when unreachable. Negative costs are
  /// clamped to zero.
  std::vector<int> shortest_path(int from, int to,
                                 const std::function<double(int)>& cost) const;
  /// shortest_path with physical segment length as the cost.
  std::vector<int> shortest_path_by_length(int from, int to) const;

  /// True for graphs built as a lattice (ctor / make_grid): nearest
  /// intersections resolve in closed form and all segments have equal length.
  bool is_grid() const { return grid_nx_ > 0; }
  /// Lattice dimensions; only meaningful when is_grid().
  int grid_nx() const { return grid_nx_; }
  int grid_ny() const { return grid_ny_; }
  double grid_block() const { return grid_block_; }

  /// Axis-aligned bounds over all intersection positions (zero vectors for an
  /// empty graph). Used for RSU placement and the segment index extent.
  core::Vec2 bbox_min() const { return bbox_min_; }
  core::Vec2 bbox_max() const { return bbox_max_; }
  /// Sum of all segment lengths, metres.
  double total_length() const { return total_length_; }

 private:
  int add_segment_with_length(int a, int b, double length);

  std::vector<core::Vec2> nodes_;
  std::vector<std::pair<int, int>> segments_;  ///< (a, b) with a < b
  std::vector<double> lengths_;                ///< metres, parallel to segments_
  std::vector<std::vector<std::pair<int, int>>> adj_;  ///< idx -> (nbr, seg)
  core::Vec2 bbox_min_;
  core::Vec2 bbox_max_;
  double total_length_ = 0.0;
  // Lattice metadata (zero when the graph was built generally).
  int grid_nx_ = 0;
  int grid_ny_ = 0;
  double grid_block_ = 0.0;
};

/// Flags segments whose interior points cannot be trusted to identify the
/// segment uniquely: another segment crosses (or passes within `clearance_m`
/// of) the interior, or an incident segment leaves the shared intersection at
/// a near-collinear angle (|sin| < `min_sin`). On such segments a position
/// can be (near-)equidistant from two roads, so "the segment this vehicle
/// drives on" and "the segment nearest this position" may legitimately
/// disagree. The incremental density oracle (sim/scenario.cpp) only trusts a
/// mobility model's self-reported segment when it is NOT flagged here —
/// anything flagged falls back to the SegmentIndex query, which keeps the
/// incremental refresh bit-identical to querying the index for every
/// vehicle. Conservative by construction: over-flagging only costs an index
/// query, never correctness.
/// Lattice graphs flag nothing (segments meet only at right angles).
std::vector<bool> ambiguous_interior_segments(const RoadGraph& graph,
                                              double clearance_m = 0.01,
                                              double min_sin = 0.01);

/// Shared per-segment vehicle-count estimates (see header comment).
class SegmentDensityOracle {
 public:
  explicit SegmentDensityOracle(std::size_t segments) : counts_(segments, 0.0) {}

  void set_count(int seg, double vehicles);
  double count(int seg) const;
  std::size_t segments() const { return counts_.size(); }

 private:
  std::vector<double> counts_;
};

}  // namespace vanet::map

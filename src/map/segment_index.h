// Uniform-grid spatial index over the segments of a RoadGraph.
//
// Answers "which road segment is closest to this position?" without the
// O(segments) scan of RoadGraph::segment_of_position. Each segment is
// registered in every cell its bounding box overlaps; a query expands square
// rings of cells around the query position until the best candidate provably
// beats everything in the unvisited rings.
//
// Exactness contract: nearest_segment(pos) returns *bit-identically* the same
// segment id as RoadGraph::segment_of_position(pos) — same distance function
// (core::distance_to_segment on the same endpoint values) and the same
// tie-break (lowest segment id among the global minima). The scenario's
// density updates run through this index, so the contract is what keeps the
// golden-report digests of grid scenarios unchanged; a property test
// (RoadGraph.SegmentIndexMatchesLinearScan) enforces it against the brute
// force. The index holds a reference to the graph and must not outlive it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cell_array.h"
#include "core/vec2.h"
#include "map/road_graph.h"

namespace vanet::map {

class SegmentIndex {
 public:
  /// Build over all segments of `graph` (which must stay alive and
  /// unmodified). `cell_size_m` <= 0 picks the mean segment length.
  explicit SegmentIndex(const RoadGraph& graph, double cell_size_m = 0.0);

  /// Segment closest to `pos`; ties resolve to the lowest segment id.
  /// Exactly equal to graph().segment_of_position(pos).
  int nearest_segment(core::Vec2 pos) const;

  const RoadGraph& graph() const { return graph_; }
  double cell_size() const { return cell_; }

 private:
  int linear_scan(core::Vec2 pos) const;

  const RoadGraph& graph_;
  /// Cell -> segment ids whose bbox overlaps the cell, over the graph's box.
  core::CellArray<std::vector<std::int32_t>> cells_;
  double cell_;
  // Cell-coordinate bounds of the occupied region, for ring-count capping.
  std::int64_t cx_min_ = 0, cx_max_ = 0, cy_min_ = 0, cy_max_ = 0;
};

}  // namespace vanet::map

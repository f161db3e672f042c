// Road cells: a partition of a RoadGraph's segments into spatial groups.
//
// The grid-gateway protocol family partitions space into cells and elects one
// relay per cell. On the legacy axis-aligned plane a cell is a square of bare
// coordinates; on an imported map that square may contain no road at all.
// SegmentCells instead groups *segments*: each segment joins the uniform grid
// bucket its midpoint falls in, and every non-empty bucket becomes one road
// cell. A vehicle's cell is the cell of its nearest segment (via
// SegmentIndex), so cell membership follows the street a vehicle is actually
// on, not the block it happens to overfly.
//
// Each cell has a deterministic `anchor` — the centroid of its member
// segments' midpoints — playing the role the geometric cell centre plays in
// the legacy election (gateway = member closest to the anchor).
//
// Determinism: cell ids are dense and assigned in first-appearance order over
// ascending segment ids; member lists are ascending; anchors are accumulated
// in that same order. Holds a reference to the graph; must not outlive it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/vec2.h"
#include "map/road_graph.h"
#include "map/segment_index.h"

namespace vanet::map {

class SegmentCells {
 public:
  /// Partition all segments of `graph` into buckets of size `cell_m` metres
  /// (must be > 0). The graph must stay alive and unmodified.
  SegmentCells(const RoadGraph& graph, double cell_m);

  int cell_count() const { return static_cast<int>(members_.size()); }
  double cell_size() const { return cell_; }

  /// Dense cell id of segment `seg`.
  int cell_of_segment(int seg) const;

  /// Cell of the segment nearest `pos` (index must be over the same graph).
  int cell_at(core::Vec2 pos, const SegmentIndex& index) const;

  /// Centroid of the member segments' midpoints: the election reference
  /// point, and deterministic for equal inputs.
  core::Vec2 anchor(int cell) const;

  /// Member segment ids of `cell`, ascending.
  const std::vector<int>& segments_in(int cell) const;

 private:
  const RoadGraph& graph_;
  double cell_ = 1.0;
  std::vector<int> seg_cell_;               ///< segment id -> cell id
  std::vector<std::vector<int>> members_;   ///< cell id -> segment ids
  std::vector<core::Vec2> anchors_;         ///< cell id -> anchor point
};

}  // namespace vanet::map

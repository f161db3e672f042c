#include "map/segment_cells.h"

#include <map>
#include <utility>

#include "core/assert.h"
#include "core/cell_array.h"

namespace vanet::map {

SegmentCells::SegmentCells(const RoadGraph& graph, double cell_m)
    : graph_{graph}, cell_{cell_m} {
  VANET_ASSERT_MSG(cell_ > 0.0, "road cell size must be positive");
  VANET_ASSERT_MSG(graph.segment_count() > 0, "road cells over an empty graph");
  std::map<std::pair<std::int64_t, std::int64_t>, int> bucket_cell;
  seg_cell_.resize(graph.segment_count());
  for (std::size_t s = 0; s < graph.segment_count(); ++s) {
    const auto [a, b] = graph.segment_ends(static_cast<int>(s));
    const core::Vec2 mid =
        (graph.intersection_pos(a) + graph.intersection_pos(b)) / 2.0;
    auto [it, fresh] =
        bucket_cell.try_emplace({core::grid_cell_coord(mid.x, cell_),
                                 core::grid_cell_coord(mid.y, cell_)},
                                cell_count());
    if (fresh) {
      members_.emplace_back();
      anchors_.push_back({0.0, 0.0});
    }
    const int cell = it->second;
    seg_cell_[s] = cell;
    members_[static_cast<std::size_t>(cell)].push_back(static_cast<int>(s));
    anchors_[static_cast<std::size_t>(cell)] += mid;
  }
  for (std::size_t c = 0; c < members_.size(); ++c) {
    anchors_[c] = anchors_[c] / static_cast<double>(members_[c].size());
  }
}

int SegmentCells::cell_of_segment(int seg) const {
  return seg_cell_.at(static_cast<std::size_t>(seg));
}

int SegmentCells::cell_at(core::Vec2 pos, const SegmentIndex& index) const {
  VANET_ASSERT_MSG(&index.graph() == &graph_,
                   "segment index built over a different graph");
  return cell_of_segment(index.nearest_segment(pos));
}

core::Vec2 SegmentCells::anchor(int cell) const {
  return anchors_.at(static_cast<std::size_t>(cell));
}

const std::vector<int>& SegmentCells::segments_in(int cell) const {
  return members_.at(static_cast<std::size_t>(cell));
}

}  // namespace vanet::map

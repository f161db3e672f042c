#include "routing/corridor_cache.h"

namespace vanet::routing {

const map::RouteCorridor& CorridorCache::between(const map::RoadGraph& graph,
                                                 const map::SegmentIndex& index,
                                                 std::uint64_t key,
                                                 core::Vec2 src,
                                                 core::Vec2 dst, int src_seg,
                                                 int dst_seg) {
  Entry& e = entries_[key];
  const int ss = src_seg >= 0 ? src_seg : index.nearest_segment(src);
  const int ds = dst_seg >= 0 ? dst_seg : index.nearest_segment(dst);
  // entry_intersection is a pure function of (graph, segment, position); the
  // entry invariantly maps (src_segment, src_pos) -> src_entry on exit, so a
  // repeat query with the same bits (an RREQ origin is fixed for the whole
  // flood; a target moves once per tick) reuses the stored answer.
  const int se = (ss == e.src_segment && src == e.src_pos)
                     ? e.src_entry
                     : map::RouteCorridor::entry_intersection(graph, ss, src);
  const int de = (ds == e.dst_segment && dst == e.dst_pos)
                     ? e.dst_entry
                     : map::RouteCorridor::entry_intersection(graph, ds, dst);
  if (e.src_segment != ss || e.dst_segment != ds || e.src_entry != se ||
      e.dst_entry != de) {
    e.corridor = map::RouteCorridor::between(graph, index, src, dst, ss, ds);
    e.src_segment = ss;
    e.dst_segment = ds;
    e.src_entry = se;
    e.dst_entry = de;
  }
  e.src_pos = src;
  e.dst_pos = dst;
  return e.corridor;
}

}  // namespace vanet::routing

#include "routing/corridor_cache.h"

#include "core/assert.h"

namespace vanet::routing {

const map::RouteCorridor& CorridorCache::between(const map::RoadGraph& graph,
                                                 std::uint64_t key,
                                                 core::Vec2 src,
                                                 core::Vec2 dst, int src_seg,
                                                 int dst_seg) {
  VANET_ASSERT_MSG(src_seg >= 0 && dst_seg >= 0,
                   "corridor endpoints need resolved segment ids");
  Entry& e = entries_[key];
  // entry_intersection is a pure function of (graph, segment, position); the
  // entry invariantly maps (src_segment, src_pos) -> src_entry on exit, so a
  // repeat query with the same bits (an RREQ origin is fixed for the whole
  // flood; a target moves once per tick) reuses the stored answer.
  const int se =
      (src_seg == e.src_segment && src == e.src_pos)
          ? e.src_entry
          : map::RouteCorridor::entry_intersection(graph, src_seg, src);
  const int de =
      (dst_seg == e.dst_segment && dst == e.dst_pos)
          ? e.dst_entry
          : map::RouteCorridor::entry_intersection(graph, dst_seg, dst);
  if (e.src_segment != src_seg || e.dst_segment != dst_seg ||
      e.src_entry != se || e.dst_entry != de) {
    e.corridor = map::RouteCorridor::between(graph, src, dst, src_seg, dst_seg);
    e.src_segment = src_seg;
    e.dst_segment = dst_seg;
    e.src_entry = se;
    e.dst_entry = de;
  }
  e.src_pos = src;
  e.dst_pos = dst;
  return e.corridor;
}

}  // namespace vanet::routing

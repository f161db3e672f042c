// Per-node cache of road-route corridors, shared by the route-geometry paths
// of zone, grid and gvgrid.
//
// Building a map::RouteCorridor runs Dijkstra; a protocol instance evaluating
// every data frame (or RREQ) of a flow cannot afford that per packet. Flows
// are long-lived and roads do not move, so the corridor between a flow's
// endpoints is cached under a caller-chosen 64-bit key (canonically
// origin<<32|destination). Endpoints DO move: each lookup takes the caller's
// resolved segment ids and re-derives the entry intersections — two distance
// computations per endpoint, never an O(intersections) scan — and rebuilds
// only when that tuple changed: the cheap checks every packet, Dijkstra only
// when an endpoint actually migrated along its street. The refresh rule
// depends on ids, not time, so replaying the same packet sequence rebuilds
// at the same points: determinism is preserved.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/vec2.h"
#include "map/route_corridor.h"

namespace vanet::routing {

class CorridorCache {
 public:
  /// Corridor between `src` and `dst` on `graph`, cached under `key`.
  /// `src_seg`/`dst_seg` are the endpoints' resolved segments (a
  /// SegmentSnapshot answer or an id stamped into the packet header at
  /// origination); each MUST be the nearest segment to its position. The
  /// returned reference is valid until the next between() call.
  const map::RouteCorridor& between(const map::RoadGraph& graph,
                                    std::uint64_t key, core::Vec2 src,
                                    core::Vec2 dst, int src_seg, int dst_seg);

  /// Pair key helper: (a, b) -> a<<32 | b.
  static std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

 private:
  struct Entry {
    map::RouteCorridor corridor;
    int src_segment = -1;
    int dst_segment = -1;
    int src_entry = -1;  ///< entry_intersection of src on src_segment
    int dst_entry = -1;
    // Positions the entry ids were resolved from, bit-exact. A lookup with
    // the same (segment, position) bits skips the entry_intersection
    // recomputation; any change falls through to the exact query.
    core::Vec2 src_pos{};
    core::Vec2 dst_pos{};
  };
  std::unordered_map<std::uint64_t, Entry> entries_;
};

}  // namespace vanet::routing

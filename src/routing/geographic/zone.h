// Zone routing (Bronsted & Kristensen [22], Sec. VI-B).
//
// A zone is a geographic corridor between the source and the destination;
// vehicles inside the zone rebroadcast, vehicles outside drop. The effect
// (Fig. 6) is flooding confined to the section of road that actually leads
// to the destination.
//
// Two corridor geometries (ProtocolContext::route_geometry):
//  - line (default): the straight src→dst segment — faithful on lattice
//    maps, where every point near the line is near a road.
//  - route: the corridor follows the shortest road route between the
//    endpoints (map::RouteCorridor), so on an imported map the flood stays on
//    streets that lead to the destination instead of cutting across roadless
//    blocks. Falls back to the straight line when the endpoints are in
//    disconnected road components.
#pragma once

#include "core/vec2.h"
#include "routing/corridor_cache.h"
#include "routing/dup_cache.h"
#include "routing/protocol.h"

namespace vanet::routing {

struct ZoneHeader final : net::Header {
  static constexpr net::HeaderTag kTag = net::HeaderTag::kZone;
  ZoneHeader() : net::Header{kTag} {}
  core::Vec2 src_pos;
  core::Vec2 dst_pos;
  /// Road segments nearest src_pos/dst_pos, stamped at origination under
  /// route geometry (-1 otherwise). Pure functions of the stamped positions,
  /// so receivers reusing them get bit-identically what a fresh index query
  /// over src_pos/dst_pos would return.
  int src_seg = -1;
  int dst_seg = -1;
};

class ZoneProtocol final : public RoutingProtocol {
 public:
  bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                 std::size_t bytes) override;
  void handle_frame(const net::Packet& p) override;

  std::string_view name() const override { return "zone"; }
  Category category() const override { return Category::kGeographic; }

 private:
  bool inside_zone(const net::Packet& p, const ZoneHeader& h) const;

  DupCache seen_;
  /// Route geometry only, keyed by (origin, dst).
  mutable CorridorCache corridors_;

  static constexpr double kHalfWidth = 250.0;  ///< corridor half width, m
  static constexpr int kZoneTtl = 16;
  static constexpr double kJitterMs = 15.0;
};

}  // namespace vanet::routing

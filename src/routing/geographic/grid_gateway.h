// Grid/gateway routing (CarNet [20], LORA-DCBF [26], Sec. VI).
//
// Space is partitioned into cells; within each cell a single *gateway*
// vehicle relays packets while ordinary members stay silent — "all the
// members in the zone can read and process the packet; they do not
// retransmit". The gateway is elected locally: the vehicle closest to the
// cell's reference point among the cell's members known from the neighbor
// table (deterministic tie-break by id). Forwarding is additionally confined
// to a corridor toward the destination (LORA-DCBF's directional flooding).
//
// Cells are kCellRangeFraction x the radio's nominal range on a side, so
// that neighbouring gateways can always hear each other (a cell larger than
// the radio range breaks the gateway relay chain).
//
// Two cell/corridor geometries (ProtocolContext::route_geometry):
//  - line (default): square coordinate cells (reference point = the
//    square's centre) and a straight src→dst corridor.
//  - route: cells are groups of road segments (map::SegmentCells) — a
//    vehicle belongs to the cell of the street it is on, the reference point
//    is the cell's road anchor, and the corridor follows the shortest road
//    route between the endpoints.
#pragma once

#include <memory>

#include "core/vec2.h"
#include "map/segment_cells.h"
#include "routing/corridor_cache.h"
#include "routing/dup_cache.h"
#include "routing/protocol.h"

namespace vanet::routing {

struct GridHeader final : net::Header {
  static constexpr net::HeaderTag kTag = net::HeaderTag::kGrid;
  GridHeader() : net::Header{kTag} {}
  core::Vec2 src_pos;
  core::Vec2 dst_pos;
  /// Road segments nearest src_pos/dst_pos, stamped at origination under
  /// route geometry (-1 otherwise); pure functions of the stamped positions,
  /// so receivers reusing them match a fresh index query bit-for-bit.
  int src_seg = -1;
  int dst_seg = -1;
};

class GridGatewayProtocol final : public RoutingProtocol {
 public:
  bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                 std::size_t bytes) override;
  void handle_frame(const net::Packet& p) override;

  std::string_view name() const override { return "grid"; }
  Category category() const override { return Category::kGeographic; }
  bool wants_hello() const override { return true; }

  /// Exposed for tests: gateway election result for this node right now.
  bool is_gateway() const;

 private:
  double cell() const;
  core::Vec2 cell_center(core::Vec2 pos) const;
  bool inside_corridor(const net::Packet& p, const GridHeader& h) const;
  const map::SegmentCells& road_cells() const;

  DupCache seen_;
  /// Lazily built on first use (cell sizing needs the bound network's radio
  /// range); per-instance, immutable afterwards.
  mutable std::unique_ptr<map::SegmentCells> road_cells_;
  /// Route geometry only, keyed by (origin, dst).
  mutable CorridorCache corridors_;

  static constexpr double kCellRangeFraction = 0.8;
  static constexpr double kCorridorHalfWidth = 600.0;  ///< m
  static constexpr int kGridTtl = 20;
  static constexpr double kJitterMs = 15.0;
};

}  // namespace vanet::routing

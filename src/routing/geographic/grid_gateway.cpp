#include "routing/geographic/grid_gateway.h"

#include <cmath>
#include <memory>

namespace vanet::routing {

double GridGatewayProtocol::cell() const {
  return kCellRangeFraction * network().nominal_range();
}

core::Vec2 GridGatewayProtocol::cell_center(core::Vec2 pos) const {
  const double size = cell();
  const double cx = std::floor(pos.x / size) * size + size / 2.0;
  const double cy = std::floor(pos.y / size) * size + size / 2.0;
  return {cx, cy};
}

const map::SegmentCells& GridGatewayProtocol::road_cells() const {
  if (!road_cells_) {
    road_cells_ = std::make_unique<map::SegmentCells>(road_map(), cell());
  }
  return *road_cells_;
}

bool GridGatewayProtocol::is_gateway() const {
  const core::Vec2 here = network().position(self());
  if (route_geometry()) {
    // Road cell: membership follows the nearest street, the election
    // reference point is the cell's road anchor. Own position is
    // tick-aligned, so the snapshot serves it; neighbor positions are
    // extrapolated (predicted_pos) and must stay exact index queries.
    const map::SegmentCells& cells = road_cells();
    const int my_cell = cells.cell_of_segment(snapped_segment(self(), here));
    const core::Vec2 anchor = cells.anchor(my_cell);
    const double my_dist = (here - anchor).norm();
    for (const auto& nbr : neighbors().snapshot()) {
      const core::Vec2 pos = nbr.predicted_pos(now());
      if (cells.cell_at(pos, segment_index()) != my_cell) continue;
      const double d = (pos - anchor).norm();
      if (d < my_dist || (d == my_dist && nbr.id < self())) return false;
    }
    return true;
  }
  const core::Vec2 center = cell_center(here);
  const double my_dist = (here - center).norm();
  for (const auto& nbr : neighbors().snapshot()) {
    const core::Vec2 pos = nbr.predicted_pos(now());
    if (cell_center(pos) != center) continue;  // different cell
    const double d = (pos - center).norm();
    if (d < my_dist || (d == my_dist && nbr.id < self())) return false;
  }
  return true;
}

bool GridGatewayProtocol::inside_corridor(const net::Packet& p,
                                          const GridHeader& h) const {
  if (route_geometry()) {
    const map::RouteCorridor& corridor = corridors_.between(
        road_map(), CorridorCache::pair_key(p.origin, p.destination),
        h.src_pos, h.dst_pos, h.src_seg, h.dst_seg);
    if (corridor.route_found()) {
      const map::SegmentCells& cells = road_cells();
      const core::Vec2 here = network().position(self());
      const core::Vec2 anchor =
          cells.anchor(cells.cell_of_segment(snapped_segment(self(), here)));
      return corridor.contains(anchor, kCorridorHalfWidth);
    }
    // No road route between the endpoints: straight-line confinement below.
  }
  const core::Vec2 center = cell_center(network().position(self()));
  return core::distance_to_segment(center, h.src_pos, h.dst_pos) <=
         kCorridorHalfWidth;
}

bool GridGatewayProtocol::originate(net::NodeId dst, std::uint32_t flow,
                                    std::uint32_t seq, std::size_t bytes) {
  auto h = std::make_shared<GridHeader>();
  h->src_pos = network().position(self());
  h->dst_pos = network().position(dst);  // location service
  if (route_geometry()) {
    h->src_seg = snapped_segment(self(), h->src_pos);
    h->dst_seg = snapped_segment(dst, h->dst_pos);
  }

  net::Packet p = make_data(dst, flow, seq, bytes);
  p.ttl = kGridTtl;
  p.header = std::move(h);
  seen_.seen_or_insert(DupCache::key(p.origin, p.flow, p.seq));
  // Flood-family quirk (see flooding.cpp): the source's send charges no hop.
  broadcast(std::move(p));
  return true;
}

void GridGatewayProtocol::handle_frame(const net::Packet& p) {
  if (p.kind != net::PacketKind::kData) return;
  const auto* h = p.header_as<GridHeader>();
  if (h == nullptr) return;
  if (seen_.seen_or_insert(DupCache::key(p.origin, p.flow, p.seq))) return;
  if (p.destination == self()) {
    deliver(p);
    return;
  }
  // Members read and process but do not retransmit; only gateways relay,
  // and only inside the corridor toward the destination.
  if (!is_gateway() || !inside_corridor(p, *h)) return;
  net::Packet fwd = p;
  if (!spend_ttl(fwd)) return;
  charge_hop(fwd);
  schedule(jitter(kJitterMs), [this, fwd]() mutable { broadcast(std::move(fwd)); });
}

}  // namespace vanet::routing

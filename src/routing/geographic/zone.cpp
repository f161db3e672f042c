#include "routing/geographic/zone.h"

#include <memory>

namespace vanet::routing {

bool ZoneProtocol::originate(net::NodeId dst, std::uint32_t flow,
                             std::uint32_t seq, std::size_t bytes) {
  auto h = std::make_shared<ZoneHeader>();
  h->src_pos = network().position(self());
  h->dst_pos = network().position(dst);  // location service
  if (route_geometry()) {
    h->src_seg = snapped_segment(self(), h->src_pos);
    h->dst_seg = snapped_segment(dst, h->dst_pos);
  }

  net::Packet p = make_data(dst, flow, seq, bytes);
  p.ttl = kZoneTtl;
  p.header = std::move(h);
  seen_.seen_or_insert(DupCache::key(p.origin, p.flow, p.seq));
  // Flood-family quirk (see flooding.cpp): the source's send charges no hop.
  broadcast(std::move(p));
  return true;
}

bool ZoneProtocol::inside_zone(const net::Packet& p, const ZoneHeader& h) const {
  const core::Vec2 here = network().position(self());
  if (route_geometry()) {
    const map::RouteCorridor& corridor = corridors_.between(
        road_map(), CorridorCache::pair_key(p.origin, p.destination),
        h.src_pos, h.dst_pos, h.src_seg, h.dst_seg);
    // Disconnected endpoints have no road route: the straight-line zone is
    // then the only corridor that exists.
    if (corridor.route_found()) return corridor.contains(here, kHalfWidth);
  }
  return core::distance_to_segment(here, h.src_pos, h.dst_pos) <= kHalfWidth;
}

void ZoneProtocol::handle_frame(const net::Packet& p) {
  if (p.kind != net::PacketKind::kData) return;
  const auto* h = p.header_as<ZoneHeader>();
  if (h == nullptr) return;
  if (seen_.seen_or_insert(DupCache::key(p.origin, p.flow, p.seq))) return;
  if (p.destination == self()) {
    deliver(p);
    return;
  }
  // Outside the corridor: drop silently — that is the whole point of zones.
  if (!inside_zone(p, *h)) return;
  net::Packet fwd = p;
  if (!spend_ttl(fwd)) return;
  charge_hop(fwd);
  schedule(jitter(kJitterMs), [this, fwd]() mutable { broadcast(std::move(fwd)); });
}

}  // namespace vanet::routing

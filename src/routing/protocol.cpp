#include "routing/protocol.h"

#include "core/assert.h"
#include "map/segment_index.h"
#include "map/segment_snapshot.h"

namespace vanet::routing {

std::string_view to_string(Category c) {
  switch (c) {
    case Category::kConnectivity: return "connectivity";
    case Category::kMobility: return "mobility";
    case Category::kInfrastructure: return "infrastructure";
    case Category::kGeographic: return "geographic";
    case Category::kProbability: return "probability";
  }
  return "?";
}

void RoutingProtocol::bind(const ProtocolContext& ctx) {
  VANET_ASSERT(ctx.sim && ctx.net && ctx.rng && ctx.events);
  VANET_ASSERT_MSG(ctx_.sim == nullptr, "bind called twice");
  VANET_ASSERT_MSG(!wants_hello() || ctx.hello != nullptr,
                   "protocol requires a HelloService");
  const World* w = ctx.world;
  VANET_ASSERT_MSG(w && w->map && w->segments && w->seg_snapshot &&
                       w->density && w->ferries,
                   "the run's world must be bound whole");
  VANET_ASSERT_MSG(&w->segments->graph() == w->map,
                   "segment index built over a different graph");
  ctx_ = ctx;
}

const net::NeighborTable& RoutingProtocol::neighbors() const {
  VANET_ASSERT_MSG(ctx_.hello != nullptr, "no hello service bound");
  return ctx_.hello->table(ctx_.self);
}

int RoutingProtocol::snapped_segment(net::NodeId id, core::Vec2 pos) const {
  return ctx_.world->seg_snapshot->segment_of(id, pos);
}

net::Packet RoutingProtocol::make_data(net::NodeId dst, std::uint32_t flow,
                                       std::uint32_t seq,
                                       std::size_t bytes) const {
  net::Packet p;
  p.kind = net::PacketKind::kData;
  p.origin = ctx_.self;
  p.destination = dst;
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = bytes;
  p.created_at = now();
  return p;
}

void RoutingProtocol::broadcast(net::Packet p) const {
  p.rx = net::kBroadcastId;
  ctx_.net->send(ctx_.self, std::move(p));
}

void RoutingProtocol::unicast(net::NodeId next_hop, net::Packet p) const {
  p.rx = next_hop;
  ctx_.net->send(ctx_.self, std::move(p));
}

void RoutingProtocol::deliver(const net::Packet& p) {
  const std::uint64_t key = DupCache::key(p.origin, p.flow, p.seq);
  if (delivery_seen_.seen_or_insert(key)) return;
  if (deliver_cb_) deliver_cb_(p);
}

bool RoutingProtocol::spend_ttl(net::Packet& p) const {
  if (--p.ttl > 0) return true;
  ++ctx_.events->data_dropped_ttl;
  return false;
}

void RoutingProtocol::charge_hop(net::Packet& p) const {
  p.hops += 1;
  ++ctx_.events->data_forwarded;
}

core::SimTime RoutingProtocol::jitter(double max_ms) const {
  return core::SimTime::seconds(ctx_.rng->uniform(0.0, max_ms * 1e-3));
}

}  // namespace vanet::routing

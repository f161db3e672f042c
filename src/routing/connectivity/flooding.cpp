#include "routing/connectivity/flooding.h"

#include <algorithm>

#include "core/assert.h"

namespace vanet::routing {

void FloodingProtocol::start() {
  if (suppression_ != FloodSuppression::kEtx) return;
  VANET_ASSERT_MSG(ctx_.hello != nullptr,
                   "flood.suppression=etx requires the hello service");
  agent_ = std::make_unique<EtxAgent>(self(), LinkCost::kEtx);
  agent_->attach(*ctx_.hello);
}

bool FloodingProtocol::originate(net::NodeId dst, std::uint32_t flow,
                                 std::uint32_t seq, std::size_t bytes) {
  net::Packet p = make_data(dst, flow, seq, bytes);
  p.ttl = kFloodTtl;
  seen_.seen_or_insert(flood_key(p));
  // Quirk shared by the flood family (zone, grid): the source's broadcast
  // charges no hop, where unicast protocols charge their first send.
  broadcast(p);
  after_rebroadcast(p);
  return true;
}

void FloodingProtocol::handle_frame(const net::Packet& p) {
  if (p.kind != net::PacketKind::kData) return;
  const std::uint64_t key = flood_key(p);
  // Quirk shared by the flood family: seen_ is checked before deliver(), so
  // every copy after the first stops here, at the destination too.
  if (seen_.seen_or_insert(key)) {
    // A copy from someone else while our own rebroadcast of this packet is
    // still deferred: each such transmitter was better placed. Once
    // kSuppressCopies of them have covered the neighbourhood, ours is
    // redundant — cancel it.
    if (auto it = deferred_.find(key);
        it != deferred_.end() && ++it->second.overheard >= kSuppressCopies) {
      if (it->second.handle.pending()) {
        it->second.handle.cancel();
        ++events().suppressed_rebroadcasts;
      }
      deferred_.erase(it);
    }
    on_duplicate_overheard(p);
    return;
  }
  if (p.destination == self()) {
    deliver(p);
    return;  // the destination absorbs the packet
  }
  net::Packet fwd = p;
  if (!spend_ttl(fwd)) return;
  charge_hop(fwd);
  core::SimTime delay = jitter(kRebroadcastJitterMs);
  if (suppression_ == FloodSuppression::kEtx) {
    const double slots =
        std::min(agent_->distance_to(p.origin), kSuppressCapEtx);
    delay = delay + core::SimTime::seconds(slots * kSuppressSlotMs * 1e-3);
    deferred_[key] = Deferred{
        ctx_.sim->schedule(delay, [this, key, fwd]() mutable {
          deferred_.erase(key);
          broadcast(std::move(fwd));
        })};
  } else {
    schedule(delay, [this, fwd]() mutable { broadcast(std::move(fwd)); });
  }
  after_rebroadcast(p);
}

}  // namespace vanet::routing

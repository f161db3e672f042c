#include "routing/linkquality/etx.h"

#include <algorithm>
#include <cmath>

namespace vanet::routing {

void EtxProtocol::start() {
  agent_ = std::make_unique<EtxAgent>(self(), cost_);
  // The agent's hooks, with the estimator-error sample wrapped around the
  // beacon fill: once per beacon, per live link, compare the estimated link
  // ETX against the analytic value at the true current distance. Only the
  // ETX rule routes on the estimate, so only it samples the error.
  ctx_.hello->set_beacon_extension(self(), [this](net::HelloHeader& h) {
    if (cost_ == LinkCost::kEtx) sample_estimator_error();
    return agent_->fill_beacon(h);
  });
  ctx_.hello->set_frame_observer(
      self(), [this](const net::Packet& p) { agent_->on_hello(p); });
  ctx_.hello->set_loss_callback(
      self(), [this](net::NodeId lost) { agent_->on_neighbor_lost(lost); });
}

void EtxProtocol::sample_estimator_error() {
  const net::Network& net = network();
  const core::Vec2 own_pos = net.position(self());
  for (const net::NodeId n : agent_->table().neighbors()) {
    const double est = agent_->table().etx(n);
    if (est >= LinkQualityTable::kMaxEtx) continue;
    const double d = (net.position(n) - own_pos).norm();
    const double p = net.propagation().receipt_probability(d);
    const double analytic =
        p * p > 1.0 / LinkQualityTable::kMaxEtx ? 1.0 / (p * p)
                                                : LinkQualityTable::kMaxEtx;
    events().etx_link_abs_error.add(std::fabs(est - analytic));
  }
}

bool EtxProtocol::originate(net::NodeId dst, std::uint32_t flow,
                            std::uint32_t seq, std::size_t bytes) {
  const auto hop = agent_->next_hop(dst);
  if (!hop) {
    ++events().data_dropped_no_route;
    return false;
  }
  net::Packet p = make_data(dst, flow, seq, bytes);
  p.ttl = 32;
  charge_hop(p);
  unicast(*hop, std::move(p));
  return true;
}

void EtxProtocol::handle_frame(const net::Packet& p) {
  if (p.kind != net::PacketKind::kData) return;
  if (p.destination == self()) {
    deliver(p);
    return;
  }
  const auto hop = agent_->next_hop(p.destination);
  if (!hop || *hop == p.tx) {
    // No route — or the best route points straight back at the node that
    // just handed us the packet, i.e. our view and its view disagree while
    // adverts converge. Returning it would ping-pong until the TTL dies;
    // drop it here and let the next advert exchange settle the route.
    ++events().data_dropped_no_route;
    return;
  }
  net::Packet fwd = p;
  if (!spend_ttl(fwd)) return;
  charge_hop(fwd);
  unicast(*hop, std::move(fwd));
}

void EtxProtocol::handle_unicast_failure(const net::Packet& p) {
  // Retries exhausted toward p.rx: treat the link as dead now rather than
  // waiting out the hello expiry — drop the link and the neighbor's adverts
  // so the next Dijkstra routes around it. Soft state re-admits the neighbor
  // on its next decoded beacon (at a fresh ratio baseline, so a lossy but
  // live link recovers instead of black-holing for the expiry window).
  agent_->on_neighbor_lost(p.rx);
  if (p.kind == net::PacketKind::kData) {
    ++events().route_breaks;
    ++events().data_dropped_no_route;
  }
}

}  // namespace vanet::routing

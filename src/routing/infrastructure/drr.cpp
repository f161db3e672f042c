#include "routing/infrastructure/drr.h"

#include <algorithm>

namespace vanet::routing {

double DrrProtocol::score_candidate(const net::NeighborInfo& cand,
                                    double progress, double distance) const {
  (void)distance;
  // RSUs are preferred relays at equal progress: they are fixed and wired.
  return progress * (cand.rsu ? 2.0 : 1.0);
}

void DrrProtocol::forward_geo(net::Packet p) {
  if (network().is_rsu(self())) {
    rsu_forward(std::move(p));
    return;
  }
  GeoUnicastBase::forward_geo(std::move(p));
}

void DrrProtocol::rsu_forward(net::Packet p) {
  // Deliver directly when the destination is in radio range — judged on its
  // dead-reckoned position, not the (possibly seconds-old) beacon position,
  // so we do not burn MAC retries on vehicles that already drove off.
  const net::NeighborInfo* nbr = neighbors().find(p.destination);
  if (nbr != nullptr &&
      (nbr->predicted_pos(now()) - network().position(self())).norm() <=
          0.9 * network().nominal_range()) {
    charge_hop(p);
    unicast(p.destination, std::move(p));
    return;
  }
  // Cross the backbone to the RSU nearest the destination's current position.
  const net::NodeId target_rsu =
      rsu_nearest(destination_position(p.destination));
  if (target_rsu != net::kBroadcastId && target_rsu != self() &&
      network().backbone_connected(self(), target_rsu)) {
    charge_hop(p);
    network().backbone_send(self(), target_rsu, std::move(p));
    return;
  }
  // We are the best-placed RSU but the destination is out of range: try a
  // greedy hand-off to a vehicle heading its way, else buffer (VEN role).
  if (try_forward(p)) return;
  buffer_packet(std::move(p));
}

void DrrProtocol::no_candidate(net::Packet p) {
  // Vehicle with no greedy progress: hand the packet to an RSU if one is in
  // range — the RSU acts as the virtual equivalent node.
  if (const net::NeighborInfo* rsu = rsu_neighbor()) {
    charge_hop(p);
    unicast(rsu->id, std::move(p));
    return;
  }
  buffer_packet(std::move(p));
}

net::NodeId DrrProtocol::rsu_nearest(core::Vec2 pos) const {
  net::NodeId best = net::kBroadcastId;
  double best_dist = 0.0;
  for (net::NodeId id : network().rsu_ids()) {
    const double d = (network().position(id) - pos).norm();
    if (best == net::kBroadcastId || d < best_dist) {
      best = id;
      best_dist = d;
    }
  }
  return best;
}

const net::NeighborInfo* DrrProtocol::rsu_neighbor() const {
  const net::NeighborInfo* best = nullptr;
  double best_dist = 0.0;
  const core::Vec2 here = network().position(self());
  for (const auto& nbr : neighbors().snapshot()) {
    if (!nbr.rsu || blacklisted(nbr.id)) continue;
    const double d = (nbr.pos - here).norm();
    if (best == nullptr || d < best_dist) {
      best = &nbr;
      best_dist = d;
    }
  }
  return best;
}

void DrrProtocol::buffer_packet(net::Packet p) {
  if (buffer_.size() >= kBufferCap) {
    ++events().data_dropped_no_route;
    return;
  }
  buffer_.push_back(
      Buffered{std::move(p), now() + core::SimTime::seconds(kBufferSeconds)});
  if (!retry_scheduled_) {
    retry_scheduled_ = true;
    schedule(core::SimTime::seconds(kRetryIntervalSeconds),
             [this] { retry_buffered(); });
  }
}

void DrrProtocol::retry_buffered() {
  retry_scheduled_ = false;
  std::vector<Buffered> keep;
  for (auto& b : buffer_) {
    if (b.deadline <= now()) {
      ++events().data_dropped_no_route;
      continue;
    }
    if (network().is_rsu(self())) {
      // Deliver directly when the destination drove into range, else try a
      // greedy hand-off; backbone ping-pong is deliberately not retried.
      const net::NeighborInfo* nbr = neighbors().find(b.packet.destination);
      if (nbr != nullptr &&
          (nbr->predicted_pos(now()) - network().position(self())).norm() <=
              0.9 * network().nominal_range()) {
        charge_hop(b.packet);
        unicast(b.packet.destination, std::move(b.packet));
        continue;
      }
      if (try_forward(b.packet)) continue;
    } else {
      if (try_forward(b.packet)) continue;
      if (const net::NeighborInfo* rsu = rsu_neighbor()) {
        charge_hop(b.packet);
        unicast(rsu->id, std::move(b.packet));
        continue;
      }
    }
    keep.push_back(std::move(b));
  }
  buffer_ = std::move(keep);
  if (!buffer_.empty() && !retry_scheduled_) {
    retry_scheduled_ = true;
    schedule(core::SimTime::seconds(kRetryIntervalSeconds),
             [this] { retry_buffered(); });
  }
}

}  // namespace vanet::routing

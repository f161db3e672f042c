#include "routing/geographic/geo_base.h"

#include "core/assert.h"

namespace vanet::routing {

bool GeoUnicastBase::originate(net::NodeId dst, std::uint32_t flow,
                               std::uint32_t seq, std::size_t bytes) {
  net::Packet p = make_data(dst, flow, seq, bytes);
  p.ttl = kGeoTtl;
  forward_geo(std::move(p));
  return true;
}

void GeoUnicastBase::handle_frame(const net::Packet& p) {
  if (p.kind != net::PacketKind::kData) return;
  if (p.destination == self()) {
    if (delivered_.seen_or_insert(DupCache::key(p.origin, p.flow, p.seq))) return;
    deliver(p);
    return;
  }
  net::Packet fwd = p;
  fwd.ttl -= 1;
  if (fwd.ttl <= 0) {
    ++events().data_dropped_ttl;
    return;
  }
  forward_geo(std::move(fwd));
}

bool GeoUnicastBase::try_forward(net::Packet& p) {
  const core::Vec2 here = network().position(self());
  const core::Vec2 target = forward_target(p);
  const core::Vec2 true_dest = destination_position(p.destination);
  const double target_dist = (target - here).norm();
  const double dest_dist = (true_dest - here).norm();

  // The destination itself competes like any candidate (its progress is the
  // full remaining distance); the subclass score decides — REAR, for
  // example, may prefer a short reliable hop over a marginal direct shot.
  const net::NeighborInfo* best = nullptr;
  double best_score = 0.0;
  for (const auto& cand : neighbors().snapshot()) {
    if (cand.id == p.origin || blacklisted(cand.id)) continue;
    const core::Vec2 cand_pos = cand.predicted_pos(now());
    const double progress =
        cand.id == p.destination
            ? dest_dist - (true_dest - cand_pos).norm()
            : target_dist - (target - cand_pos).norm();
    if (progress < min_progress()) continue;
    const double distance = (cand_pos - here).norm();
    const double score = score_candidate(cand, progress, distance);
    if (score > best_score) {
      best_score = score;
      best = &cand;
    }
  }
  if (best == nullptr) {
    // Fallback: nobody scored, but the destination is in range — deliver.
    if (neighbors().find(p.destination) != nullptr &&
        !blacklisted(p.destination)) {
      p.hops += 1;
      ++events().data_forwarded;
      unicast(p.destination, p);
      return true;
    }
    return false;
  }
  p.hops += 1;
  ++events().data_forwarded;
  unicast(best->id, p);
  return true;
}

void GeoUnicastBase::forward_geo(net::Packet p) {
  if (!try_forward(p)) no_candidate(std::move(p));
}

void GeoUnicastBase::no_candidate(net::Packet p) {
  (void)p;
  ++events().data_dropped_no_route;
}

void GeoUnicastBase::handle_unicast_failure(const net::Packet& p) {
  if (p.kind != net::PacketKind::kData) return;
  ++events().route_breaks;
  blacklist(p.rx);
  net::Packet retry = p;
  forward_geo(std::move(retry));
}

void GeoUnicastBase::blacklist(net::NodeId id) {
  blacklist_[id] = now() + core::SimTime::seconds(kBlacklistSeconds);
}

bool GeoUnicastBase::blacklisted(net::NodeId id) const {
  auto it = blacklist_.find(id);
  return it != blacklist_.end() && it->second > now();
}

}  // namespace vanet::routing

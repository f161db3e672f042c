#include "routing/linkquality/etx_agent.h"

#include <algorithm>
#include <functional>

namespace vanet::routing {

namespace {

/// Wire-size accounting for the piggyback payload, mirroring the DSDV table
/// dump costing: id + quantized ratio per link entry, id + quantized
/// distance + sequence per route entry.
constexpr std::size_t kLinkEntryBytes = 6;
constexpr std::size_t kRouteEntryBytes = 10;

/// Outgoing beacons that carry a fresh route invalidation before it goes
/// quiet (it keeps filtering locally): enough repetitions to survive a lossy
/// channel, without letting long-lived nodes accrete unbounded kill payload.
constexpr int kKillBeacons = 3;

}  // namespace

EtxAgent::EtxAgent(net::NodeId self) : self_{self} {}

void EtxAgent::attach(net::HelloService& hello) {
  hello.set_beacon_extension(
      self_, [this](net::HelloHeader& h) { return fill_beacon(h); });
  hello.set_frame_observer(
      self_, [this](const net::Packet& p, const net::HelloHeader& h) {
        on_hello(p, h);
      });
  hello.set_loss_callback(self_,
                          [this](net::NodeId lost) { on_neighbor_lost(lost); });
}

void EtxAgent::grow(net::NodeId max_id) {
  if (max_id < adverts_.size()) return;
  const std::size_t n = std::size_t{max_id} + 1;
  adverts_.resize(n);
  dst_seqs_.resize(n);
  kills_.resize(n);
  routes_.resize(n);
}

std::size_t EtxAgent::fill_beacon(net::HelloHeader& h) {
  // Link reports: "I receive you with ratio r" for every live link, sorted
  // by id — each named neighbor reads its own entry back as its df.
  const std::vector<net::NodeId>& nbrs = table_.neighbors();
  h.links.reserve(nbrs.size());
  for (const net::NodeId n : nbrs) {
    h.links.push_back({n, table_.reverse_ratio(n)});
  }
  // Distance vector: self at distance 0 (destination-sequenced, even like
  // DSDV's valid routes), then the current Dijkstra distances in id order.
  own_seq_ += 2;
  compute_routes();
  const auto live_routes =
      std::count_if(routes_.begin(), routes_.end(), [](const Route& r) {
        return r.dist < LinkQualityTable::kMaxEtx;
      });
  const auto fresh_kills =
      std::count_if(kills_.begin(), kills_.end(), [](const Kill& k) {
        return k.active && k.beacons_left > 0;
      });
  h.routes.reserve(h.routes.size() + 1 + static_cast<std::size_t>(live_routes) +
                   static_cast<std::size_t>(fresh_kills));
  h.routes.push_back({.dst = self_, .seq = own_seq_, .dist = 0.0});
  for (net::NodeId dst = 0; dst < routes_.size(); ++dst) {
    const double dist = routes_[dst].dist;
    if (dist >= LinkQualityTable::kMaxEtx) continue;
    // Re-advertise each destination with the freshest sequence seen for it,
    // so the destination's clock propagates monotonically hop by hop (a
    // direct neighbor never advertised to us goes out with 0).
    h.routes.push_back({.dst = dst, .seq = dst_seqs_[dst], .dist = dist});
  }
  // Fresh invalidations ride along until their dissemination budget is
  // spent; the entries stay behind as local filters either way.
  for (net::NodeId dst = 0; dst < kills_.size(); ++dst) {
    Kill& kill = kills_[dst];
    if (!kill.active || kill.beacons_left <= 0) continue;
    --kill.beacons_left;
    h.routes.push_back(
        {.dst = dst, .seq = kill.seq, .dist = LinkQualityTable::kMaxEtx});
  }
  return kLinkEntryBytes * h.links.size() + kRouteEntryBytes * h.routes.size();
}

void EtxAgent::on_hello(const net::Packet& p, const net::HelloHeader& h) {
  table_.on_hello(p.origin, h.seq);
  for (const auto& link : h.links) {
    if (link.neighbor == self_) {
      table_.on_report(p.origin, link.ratio);
      break;
    }
  }
  net::NodeId max_id = p.origin;
  for (const auto& advert : h.routes) max_id = std::max(max_id, advert.dst);
  grow(max_id);
  // Advert intake: the sender's latest distance vector replaces the previous
  // one wholesale (it IS the sender's current view; merging would resurrect
  // entries the sender dropped). Entries routing back through us are kept —
  // Dijkstra's measured self->n edges dominate any n->self->... echo.
  Advert& slot = adverts_[p.origin];
  slot.held = true;
  slot.routes.clear();
  slot.routes.reserve(h.routes.size());
  for (const auto& advert : h.routes) {
    if (advert.dst == self_) continue;
    Kill& kill = kills_[advert.dst];
    std::uint32_t& known = dst_seqs_[advert.dst];
    if (advert.dist >= LinkQualityTable::kMaxEtx) {
      // Poisoned advert (route invalidation): adopt it when it outruns both
      // our freshest sequence for the destination and any kill we hold.
      if (!kill.active || advert.seq > kill.seq) {
        kill = Kill{advert.seq, kKillBeacons, true};
      }
      if (kill.seq <= known) kill = Kill{};
      continue;
    }
    if (kill.active) {
      if (advert.seq <= kill.seq) continue;  // stale vs invalidation
      kill = Kill{};  // the destination moved past the kill: it lives
    }
    known = std::max(known, advert.seq);
    slot.routes.push_back(advert);
  }
  routes_dirty_ = true;
}

void EtxAgent::on_neighbor_lost(net::NodeId lost) {
  table_.erase(lost);
  grow(lost);
  // Release the buffer, not just the entries: a lost neighbor may never
  // come back, and its last advert can be as long as the route table.
  std::vector<net::HelloRouteEntry>().swap(adverts_[lost].routes);
  adverts_[lost].held = false;
  // Originate a route invalidation one past the destination's freshest known
  // sequence: odd, so every stale advert for `lost` loses to it everywhere,
  // and only `lost` itself (whose own sequence is even and still advancing)
  // can override it by beaconing again.
  const std::uint32_t poison = dst_seqs_[lost] + 1;
  Kill& kill = kills_[lost];
  if (!kill.active || poison > kill.seq) {
    kill = Kill{poison, kKillBeacons, true};
  }
  routes_dirty_ = true;
}

void EtxAgent::compute_routes() const {
  if (!routes_dirty_) return;
  routes_dirty_ = false;
  std::fill(routes_.begin(), routes_.end(), Route{});

  // Dijkstra over the two-layer topology. Ties broken by node id so the
  // settle order — and hence every first_hop choice — is deterministic.
  // Only nodes holding adverts enter the frontier (see the header).
  const auto later = std::greater<std::pair<double, net::NodeId>>{};
  const auto push = [&](double cost, net::NodeId node) {
    if (adverts_[node].routes.empty()) return;
    frontier_.emplace_back(cost, node);
    std::push_heap(frontier_.begin(), frontier_.end(), later);
  };
  frontier_.clear();
  for (const net::NodeId n : table_.neighbors()) {
    const double cost = table_.etx(n);
    if (cost >= LinkQualityTable::kMaxEtx) continue;
    routes_[n] = Route{cost, n};
    push(cost, n);
  }
  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), later);
    const auto [cost, node] = frontier_.back();
    frontier_.pop_back();
    if (cost > routes_[node].dist) continue;
    const net::NodeId first_hop = routes_[node].first_hop;
    for (const auto& advert : adverts_[node].routes) {
      // A kill learned after this slot was stored still applies: stale
      // entries for an invalidated destination must not open routes.
      const Kill& kill = kills_[advert.dst];
      if (kill.active && advert.seq <= kill.seq) continue;
      const double total = cost + advert.dist;
      if (total >= LinkQualityTable::kMaxEtx) continue;
      Route& route = routes_[advert.dst];
      if (total < route.dist) {
        route = Route{total, first_hop};
        push(total, advert.dst);
      }
    }
  }
}

std::optional<net::NodeId> EtxAgent::next_hop(net::NodeId dst) const {
  compute_routes();
  if (dst >= routes_.size() || routes_[dst].dist >= LinkQualityTable::kMaxEtx) {
    return std::nullopt;
  }
  return routes_[dst].first_hop;
}

double EtxAgent::distance_to(net::NodeId dst) const {
  if (dst == self_) return 0.0;
  compute_routes();
  if (dst >= routes_.size()) return LinkQualityTable::kMaxEtx;
  return routes_[dst].dist;
}

}  // namespace vanet::routing

#include "routing/linkquality/etx_agent.h"

#include <algorithm>
#include <functional>

#include "core/assert.h"

namespace vanet::routing {

namespace {

/// Wire-size accounting for the piggyback payload: id + quantized ratio per
/// link entry, id + quantized distance + sequence per route entry.
constexpr std::size_t kLinkEntryBytes = 6;
constexpr std::size_t kRouteEntryBytes = 10;

/// Outgoing beacons that carry a fresh route invalidation before it goes
/// quiet (it keeps filtering locally): enough repetitions to survive a lossy
/// channel, without letting long-lived nodes accrete unbounded kill payload.
constexpr int kKillBeacons = 3;

}  // namespace

EtxAgent::EtxAgent(net::NodeId self, LinkCost cost)
    : self_{self}, cost_{cost} {}

void EtxAgent::attach(net::HelloService& hello) {
  hello.set_beacon_extension(
      self_, [this](net::HelloHeader& h) { return fill_beacon(h); });
  hello.set_frame_observer(self_,
                           [this](const net::Packet& p) { on_hello(p); });
  hello.set_loss_callback(self_,
                          [this](net::NodeId lost) { on_neighbor_lost(lost); });
}

void EtxAgent::grow(net::NodeId max_id) {
  if (max_id < advert_of_.size()) return;
  const std::size_t n = std::size_t{max_id} + 1;
  advert_of_.resize(n, kNoAdvert);
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

void EtxAgent::on_hello(const net::Packet& p) {
  const auto* h = p.header_as<net::HelloHeader>();
  VANET_ASSERT_MSG(h != nullptr, "hello frame without HelloHeader");
  table_.on_hello(p.origin, h->seq);
  for (const auto& link : h->links) {
    if (link.neighbor == self_) {
      table_.on_report(p.origin, link.ratio);
      break;
    }
  }
  net::NodeId max_id = p.origin;
  for (const auto& advert : h->routes) max_id = std::max(max_id, advert.dst);
  grow(max_id);
  // Advert intake: the sender's latest distance vector replaces the previous
  // one wholesale (it IS the sender's current view; merging would resurrect
  // entries the sender dropped). Entries routing back through us are kept —
  // Dijkstra's measured self->n edges dominate any n->self->... echo. The
  // slot takes a reference to the beacon; intake records only which
  // entries Dijkstra must skip and where the kept ones end (see the header).
  std::uint32_t& at = advert_of_[p.origin];
  if (at == kNoAdvert) {
    at = static_cast<std::uint32_t>(adverts_.size());
    adverts_.emplace_back().from = p.origin;
  }
  Advert& slot = adverts_[at];
  slot.beacon = std::static_pointer_cast<const net::HelloHeader>(p.header);
  slot.skipped.clear();
  // Locals, not members: the loop's stores into kills_/dst_seqs_ could
  // alias them, which would force a reload on every entry.
  const net::NodeId self = self_;
  const net::HelloRouteEntry* entries = h->routes.data();
  const std::size_t count = h->routes.size();
  std::uint32_t end = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const net::HelloRouteEntry& advert = entries[i];
    if (advert.dst == self) {
      slot.skipped.push_back(i);
      continue;
    }
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
      if (advert.seq <= kill.seq) {  // stale vs invalidation
        slot.skipped.push_back(i);
        continue;
      }
      kill = Kill{};  // the destination moved past the kill: it lives
    }
    known = std::max(known, advert.seq);
    end = i + 1;
  }
  // Dijkstra stops at `end`, so skips past it need no record.
  while (!slot.skipped.empty() && slot.skipped.back() >= end) {
    slot.skipped.pop_back();
  }
  slot.end = end;
  routes_dirty_ = true;
}

void EtxAgent::on_neighbor_lost(net::NodeId lost) {
  table_.erase(lost);
  grow(lost);
  // Drop the slot and its beacon reference: a lost neighbor may never come
  // back, and its last beacon can be as long as the route table. The last
  // slot moves into the hole.
  if (std::uint32_t& at = advert_of_[lost]; at != kNoAdvert) {
    if (at + 1 != adverts_.size()) {
      adverts_[at] = std::move(adverts_.back());
      advert_of_[adverts_[at].from] = at;
    }
    adverts_.pop_back();
    at = kNoAdvert;
  }
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
    const std::uint32_t at = advert_of_[node];
    if (at == kNoAdvert || adverts_[at].end == 0) return;
    frontier_.emplace_back(cost, node);
    std::push_heap(frontier_.begin(), frontier_.end(), later);
  };
  // Relaxes the advertised edges node -> e.dst for a run [first, last) of
  // node's shared beacon that holds no skipped entry, passing over what
  // intake would not have kept — poisoned entries (their total is >=
  // kMaxEtx) — and entries killed by now: a kill learned after the beacon
  // was taken still applies, so stale entries for an invalidated
  // destination must not open routes.
  const auto relax = [&](const net::HelloRouteEntry* first,
                         const net::HelloRouteEntry* last, double cost,
                         net::NodeId first_hop) {
    for (; first != last; ++first) {
      const net::HelloRouteEntry& advert = *first;
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
  };
  frontier_.clear();
  for (const net::NodeId n : table_.neighbors()) {
    const double cost = cost_ == LinkCost::kEtx ? table_.etx(n) : 1.0;
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
    const Advert& slot = adverts_[advert_of_[node]];
    const net::HelloRouteEntry* entries = slot.beacon->routes.data();
    // The runs between the slot's skipped entries, so the inner loop
    // carries no test for self or for refusals.
    const net::HelloRouteEntry* from = entries;
    for (const std::uint32_t skipped : slot.skipped) {
      relax(from, entries + skipped, cost, first_hop);
      from = entries + skipped + 1;
    }
    relax(from, entries + slot.end, cost, first_hop);
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

#include "routing/on_demand.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "analysis/direction.h"
#include "core/assert.h"

namespace vanet::routing {

namespace {
core::SimTime discovery_timeout_for(int attempt) {
  // 1 s base, doubled per retry — comfortably above a few hops of MAC delay.
  return core::SimTime::seconds(1.0 * static_cast<double>(1 << attempt));
}
}  // namespace

// ---- policy hook defaults (plain AODV) -------------------------------------

LinkEval OnDemandBase::evaluate_link(const RreqHeader& h) const {
  (void)h;
  return LinkEval{};
}

bool OnDemandBase::path_better(const PathMetric& a, const PathMetric& b) const {
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.hops < b.hops;
}

void OnDemandBase::forward_rreq(const net::Packet& p, const RreqHeader& h) {
  (void)h;
  net::Packet copy = p;
  schedule(jitter(10.0), [this, copy]() mutable { broadcast(std::move(copy)); });
}

// ---- public entry points ----------------------------------------------------

bool OnDemandBase::originate(net::NodeId dst, std::uint32_t flow,
                             std::uint32_t seq, std::size_t bytes) {
  net::Packet p = make_data(dst, flow, seq, bytes);
  p.ttl = static_cast<int>(kDataPacketTtl);
  if (const RouteEntry* route = route_to(dst)) {
    forward_data(std::move(p), *route);
    return true;
  }
  auto& q = buffer_[dst];
  if (q.size() >= kBufferCap) {
    ++events().data_dropped_no_route;
    return false;
  }
  q.push_back(std::move(p));
  start_discovery(dst);
  return true;
}

void OnDemandBase::handle_frame(const net::Packet& p) {
  switch (p.kind) {
    case net::PacketKind::kData:
      handle_data(p);
      return;
    case net::PacketKind::kControl:
      if (p.header_as<RreqHeader>() != nullptr) {
        handle_rreq(p);
      } else if (p.header_as<RrepHeader>() != nullptr) {
        handle_rrep(p);
      } else if (p.header_as<RerrHeader>() != nullptr) {
        handle_rerr(p);
      }
      return;
    case net::PacketKind::kHello:
      return;  // dispatcher routes hellos to the HelloService
  }
}

// ---- discovery --------------------------------------------------------------

void OnDemandBase::issue_rreq(net::NodeId dst) {
  const std::uint32_t rreq_id = next_rreq_id_++;
  auto h = std::make_shared<RreqHeader>();
  h->rreq_id = rreq_id;
  h->rreq_origin = self();
  h->target = dst;
  h->tickets = initial_tickets();
  stamp_self_kinematics(*h);
  h->origin_pos = network().position(self());
  h->origin_vel = network().velocity(self());
  if (uses_road_corridor()) {
    h->origin_seg = snapped_segment(self(), h->origin_pos);
  }

  net::Packet p;
  p.kind = net::PacketKind::kControl;
  p.origin = self();
  p.destination = dst;
  p.seq = rreq_id;
  p.ttl = 16;
  p.size_bytes = kRreqBytes;
  p.created_at = now();
  p.header = h;

  rreq_seen_.seen_or_insert(DupCache::key(self(), rreq_id, 0));
  forward_rreq(p, *h);
}

void OnDemandBase::start_discovery(net::NodeId dst) {
  if (pending_.contains(dst)) return;
  ++events().discoveries_started;
  PendingDiscovery pd;
  pd.attempts = 0;
  pd.started = now();
  issue_rreq(dst);
  pd.timeout = ctx_.sim->schedule(discovery_timeout_for(0),
                                  [this, dst] { discovery_timeout(dst); });
  pending_[dst] = std::move(pd);
}

void OnDemandBase::discovery_timeout(net::NodeId dst) {
  auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  if (route_to(dst) != nullptr) {
    pending_.erase(it);
    return;
  }
  PendingDiscovery& pd = it->second;
  if (pd.attempts >= kMaxDiscoveryRetries) {
    pending_.erase(it);
    drop_buffer(dst);
    return;
  }
  ++pd.attempts;
  issue_rreq(dst);
  pd.timeout = ctx_.sim->schedule(discovery_timeout_for(pd.attempts),
                                  [this, dst] { discovery_timeout(dst); });
}

PathMetric OnDemandBase::metric_of(const RreqHeader& h) const {
  return PathMetric{h.hops, h.cost, h.min_lifetime, h.reliability};
}

void OnDemandBase::stamp_self_kinematics(RreqHeader& h) const {
  h.prev_pos = network().position(self());
  h.prev_vel = network().velocity(self());
  h.prev_acc = network().acceleration(self());
  h.prev_group = analysis::velocity_group(h.prev_vel);
}

void OnDemandBase::handle_rreq(const net::Packet& p) {
  const auto* h = p.header_as<RreqHeader>();
  VANET_ASSERT(h != nullptr);
  if (h->rreq_origin == self()) return;

  const std::uint64_t key = DupCache::key(h->rreq_origin, h->rreq_id, 0);
  // Duplicate copies at intermediate nodes fall through to the seen-check
  // below and drop without ever using the link evaluation; evaluate_link is
  // pure (metric computation only), so skipping it for copies the check is
  // guaranteed to drop is behavior-identical — and duplicate copies are the
  // bulk of a flood, so this skips most of the per-RREQ metric cost. Target
  // copies are exempt: every copy is a candidate path there.
  if (h->target != self() && rreq_seen_.contains(key)) return;

  const LinkEval ev = evaluate_link(*h);
  if (!ev.usable) return;

  RreqHeader updated = *h;
  updated.hops += 1;
  updated.cost += ev.cost;
  updated.min_lifetime = std::min(updated.min_lifetime, ev.lifetime);
  updated.reliability *= ev.reliability;

  if (h->target == self()) {
    ++events().rreq_at_target;
    if (reply_immediately()) {
      if (rreq_seen_.seen_or_insert(key)) return;
      install_route(h->rreq_origin, p.tx, updated.hops, updated.cost,
                    updated.min_lifetime, h->rreq_id, /*force=*/true);
      send_rrep(h->rreq_id, h->rreq_origin, metric_of(updated));
      return;
    }
    // Collect candidate paths for a short window, then answer the best.
    ReplyCollector& c = collectors_[key];
    if (!c.scheduled) {
      c.scheduled = true;
      c.first_seen = now();
      c.best = updated;
      c.best_prev = p.tx;
      const std::uint32_t rreq_id = h->rreq_id;
      const net::NodeId origin = h->rreq_origin;
      schedule(reply_window(), [this, key, rreq_id, origin] {
        auto it = collectors_.find(key);
        if (it == collectors_.end()) return;
        const PathMetric best = metric_of(it->second.best);
        // Pin the reverse route to the best path's previous hop; beyond that
        // hop the RREP follows the first-arrival tree (acyclic).
        install_route(origin, it->second.best_prev, best.hops, best.cost,
                      best.min_lifetime, rreq_id, /*force=*/true);
        collectors_.erase(it);
        send_rrep(rreq_id, origin, best);
      });
    } else if (path_better(metric_of(updated), metric_of(c.best))) {
      c.best = updated;
      c.best_prev = p.tx;
    }
    return;
  }

  if (rreq_seen_.seen_or_insert(key)) return;
  // Reverse route to the RREQ origin via the frame's transmitter — only from
  // this first-seen copy, so reverse paths follow the flood's spanning tree.
  install_route(h->rreq_origin, p.tx, updated.hops, updated.cost,
                updated.min_lifetime, h->rreq_id, /*force=*/false);
  if (p.ttl <= 1) return;

  stamp_self_kinematics(updated);
  net::Packet fwd = p;
  fwd.ttl -= 1;
  fwd.hops += 1;
  fwd.header = std::make_shared<RreqHeader>(updated);
  forward_rreq(fwd, updated);
}

void OnDemandBase::send_rrep(std::uint32_t rreq_id, net::NodeId origin,
                             const PathMetric& m) {
  const RouteEntry* reverse = route_to(origin);
  if (reverse == nullptr) {
    ++events().rrep_stranded;
    return;  // reverse path already gone
  }
  ++events().rrep_sent;

  auto h = std::make_shared<RrepHeader>();
  h->rreq_id = rreq_id;
  h->rreq_origin = origin;
  h->target = self();
  h->hops = 0;
  h->path_hops = m.hops;
  h->cost = m.cost;
  h->min_lifetime = m.min_lifetime;
  h->reliability = m.reliability;

  net::Packet p;
  p.kind = net::PacketKind::kControl;
  p.origin = self();
  p.destination = origin;
  p.seq = rreq_id;
  p.ttl = 32;
  p.size_bytes = kRrepBytes;
  p.created_at = now();
  p.header = std::move(h);
  unicast(reverse->next_hop, std::move(p));
}

void OnDemandBase::handle_rrep(const net::Packet& p) {
  const auto* h = p.header_as<RrepHeader>();
  VANET_ASSERT(h != nullptr);

  // Forward route to the replying destination via the frame's transmitter.
  install_route(h->target, p.tx, h->hops + 1, h->cost, h->min_lifetime,
                h->rreq_id, /*force=*/true);

  if (h->rreq_origin == self()) {
    ++events().routes_established;
    if (std::isfinite(h->min_lifetime)) {
      events().predicted_route_lifetime.add(h->min_lifetime);
    }
    pending_.erase(h->target);
    flush_buffer(h->target);
    schedule_preemptive_rebuild(h->target, h->min_lifetime);
    return;
  }
  const RouteEntry* reverse = route_to(h->rreq_origin);
  if (reverse == nullptr) {
    ++events().rrep_stranded;
    return;
  }
  ++events().rrep_relayed;
  RrepHeader updated = *h;
  updated.hops += 1;
  net::Packet fwd = p;
  fwd.ttl -= 1;
  if (fwd.ttl <= 0) return;
  fwd.hops += 1;
  fwd.header = std::make_shared<RrepHeader>(updated);
  unicast(reverse->next_hop, std::move(fwd));
}

void OnDemandBase::handle_rerr(const net::Packet& p) {
  const auto* h = p.header_as<RerrHeader>();
  VANET_ASSERT(h != nullptr);
  routes_.erase(h->broken_destination);
  if (p.destination == self()) {
    if (auto it = buffer_.find(h->broken_destination);
        it != buffer_.end() && !it->second.empty()) {
      start_discovery(h->broken_destination);
    }
    return;
  }
  if (const RouteEntry* r = route_to(p.destination)) {
    net::Packet fwd = p;
    fwd.ttl -= 1;
    if (fwd.ttl <= 0) return;
    unicast(r->next_hop, std::move(fwd));
  }
}

// ---- data path --------------------------------------------------------------

void OnDemandBase::handle_data(const net::Packet& p) {
  if (p.destination == self()) {
    deliver(p);
    return;
  }
  if (const RouteEntry* route = route_to(p.destination)) {
    forward_data(p, *route);
    return;
  }
  ++events().data_dropped_no_route;
  send_rerr(p.origin, p.destination);
}

void OnDemandBase::forward_data(net::Packet p, const RouteEntry& route) {
  // Unlike the geo family, this family spends TTL on the source's own send
  // too: originate and flush_buffer come through here.
  if (!spend_ttl(p)) return;
  charge_hop(p);
  unicast(route.next_hop, std::move(p));
}

void OnDemandBase::handle_unicast_failure(const net::Packet& p) {
  if (p.kind != net::PacketKind::kData) return;
  route_broken(p.destination, &p);
}

void OnDemandBase::route_broken(net::NodeId dst, const net::Packet* failed) {
  auto it = routes_.find(dst);
  if (it != routes_.end()) {
    ++events().route_breaks;
    events().observed_route_lifetime.add(
        (now() - it->second.established).as_seconds());
    routes_.erase(it);
  }
  if (failed == nullptr) return;
  if (failed->origin == self()) {
    // Salvage at the source: requeue and re-discover.
    auto& q = buffer_[dst];
    if (q.size() < kBufferCap) q.push_back(*failed);
    start_discovery(dst);
    return;
  }
  ++events().data_dropped_no_route;
  send_rerr(failed->origin, dst);
}

void OnDemandBase::send_rerr(net::NodeId origin, net::NodeId broken_dst) {
  const RouteEntry* reverse = route_to(origin);
  if (reverse == nullptr) return;
  auto h = std::make_shared<RerrHeader>();
  h->broken_destination = broken_dst;
  net::Packet err;
  err.kind = net::PacketKind::kControl;
  err.origin = self();
  err.destination = origin;
  err.ttl = 16;
  err.size_bytes = kRerrBytes;
  err.created_at = now();
  err.header = std::move(h);
  unicast(reverse->next_hop, std::move(err));
}

// ---- routing table ----------------------------------------------------------

const OnDemandBase::RouteEntry* OnDemandBase::route_to(net::NodeId dst) const {
  auto it = routes_.find(dst);
  if (it == routes_.end()) return nullptr;
  if (it->second.expires <= now()) return nullptr;
  return &it->second;
}

void OnDemandBase::install_route(net::NodeId dst, net::NodeId next_hop, int hops,
                                 double cost, double predicted_lifetime,
                                 std::uint32_t epoch, bool force) {
  if (dst == self()) return;
  auto it = routes_.find(dst);
  const bool stale = it == routes_.end() || it->second.expires <= now();
  if (!stale && !force) {
    const RouteEntry& cur = it->second;
    // Within an epoch only the owning tree edge may refresh; a newer epoch
    // (fresh discovery flood) replaces the entry.
    const bool same_edge = cur.next_hop == next_hop;
    if (epoch < cur.epoch) return;
    if (epoch == cur.epoch && !same_edge) return;
  }

  RouteEntry e;
  e.next_hop = next_hop;
  e.hops = hops;
  e.cost = cost;
  e.predicted_lifetime = predicted_lifetime;
  e.epoch = epoch;
  e.established = now();
  core::SimTime ttl = route_lifetime_cap();
  if (std::isfinite(predicted_lifetime)) {
    ttl = std::min(ttl, core::SimTime::seconds(std::max(0.2, predicted_lifetime)));
  }
  e.expires = now() + ttl;
  routes_[dst] = e;
}

void OnDemandBase::schedule_preemptive_rebuild(net::NodeId dst,
                                               double predicted_lifetime) {
  const double frac = preemptive_rebuild_fraction();
  if (frac <= 0.0 || !std::isfinite(predicted_lifetime)) return;
  const double delay_s = std::max(0.5, predicted_lifetime * frac);
  schedule(core::SimTime::seconds(delay_s), [this, dst] {
    // Only rebuild when the route is still alive (i.e. still in use soon).
    if (route_to(dst) != nullptr) {
      ++events().preemptive_rebuilds;
      pending_.erase(dst);  // allow a fresh discovery even if one timed out
      start_discovery(dst);
    }
  });
}

// ---- buffering --------------------------------------------------------------

void OnDemandBase::flush_buffer(net::NodeId dst) {
  auto it = buffer_.find(dst);
  if (it == buffer_.end()) return;
  std::vector<net::Packet> pending = std::move(it->second);
  buffer_.erase(it);
  for (auto& p : pending) {
    if (const RouteEntry* route = route_to(dst)) {
      forward_data(std::move(p), *route);
    } else {
      ++events().data_dropped_no_route;
    }
  }
}

void OnDemandBase::drop_buffer(net::NodeId dst) {
  auto it = buffer_.find(dst);
  if (it == buffer_.end()) return;
  events().data_dropped_no_route += it->second.size();
  buffer_.erase(it);
}

}  // namespace vanet::routing

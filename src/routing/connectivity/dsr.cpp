#include "routing/connectivity/dsr.h"

#include <algorithm>
#include <memory>

#include "core/assert.h"

namespace vanet::routing {

namespace {
/// Wire size of a path-carrying control packet: fixed part + 4 B per hop.
std::size_t control_bytes(std::size_t path_len) { return 24 + 4 * path_len; }
}  // namespace

bool DsrProtocol::originate(net::NodeId dst, std::uint32_t flow,
                            std::uint32_t seq, std::size_t bytes) {
  net::Packet p = make_data(dst, flow, seq, bytes);
  if (const CachedRoute* route = cached_route(dst)) {
    send_with_route(std::move(p), route->path);
    return true;
  }
  auto& q = buffer_[dst];
  if (q.size() >= kBufferCap) {
    ++events().data_dropped_no_route;
    return false;
  }
  q.push_back(std::move(p));
  if (!discovery_attempts_.contains(dst)) {
    discovery_attempts_[dst] = 0;
    start_discovery(dst);
  }
  return true;
}

void DsrProtocol::start_discovery(net::NodeId dst) {
  ++events().discoveries_started;
  auto h = std::make_shared<DsrRreqHeader>();
  h->rreq_id = next_rreq_id_++;
  h->target = dst;
  h->path = {self()};

  net::Packet p;
  p.kind = net::PacketKind::kControl;
  p.origin = self();
  p.destination = dst;
  p.seq = h->rreq_id;
  p.ttl = 16;
  p.size_bytes = control_bytes(1);
  p.created_at = now();
  p.header = std::move(h);

  rreq_seen_.seen_or_insert(DupCache::key(self(), p.seq, 0));
  broadcast(std::move(p));
  const double timeout_s = 1.0 * (1 << discovery_attempts_[dst]);
  schedule(core::SimTime::seconds(timeout_s),
           [this, dst] { discovery_timeout(dst); });
}

void DsrProtocol::discovery_timeout(net::NodeId dst) {
  auto it = discovery_attempts_.find(dst);
  if (it == discovery_attempts_.end()) return;
  if (cached_route(dst) != nullptr) {
    discovery_attempts_.erase(it);
    return;
  }
  if (it->second >= kMaxDiscoveryRetries) {
    discovery_attempts_.erase(it);
    auto bit = buffer_.find(dst);
    if (bit != buffer_.end()) {
      events().data_dropped_no_route += bit->second.size();
      buffer_.erase(bit);
    }
    return;
  }
  ++it->second;
  start_discovery(dst);
}

void DsrProtocol::handle_frame(const net::Packet& p) {
  switch (p.kind) {
    case net::PacketKind::kData:
      handle_data(p);
      return;
    case net::PacketKind::kControl:
      if (p.header_as<DsrRreqHeader>() != nullptr) {
        handle_rreq(p);
      } else if (p.header_as<DsrRrepHeader>() != nullptr) {
        handle_rrep(p);
      } else if (p.header_as<DsrRerrHeader>() != nullptr) {
        handle_rerr(p);
      }
      return;
    case net::PacketKind::kHello:
      return;
  }
}

void DsrProtocol::handle_rreq(const net::Packet& p) {
  const auto* h = p.header_as<DsrRreqHeader>();
  VANET_ASSERT(h != nullptr);
  if (p.origin == self()) return;
  if (std::find(h->path.begin(), h->path.end(), self()) != h->path.end()) return;
  if (rreq_seen_.seen_or_insert(DupCache::key(p.origin, h->rreq_id, 0))) return;

  std::vector<net::NodeId> path = h->path;
  path.push_back(self());

  if (h->target == self()) {
    auto reply = std::make_shared<DsrRrepHeader>();
    reply->rreq_id = h->rreq_id;
    reply->path = path;

    net::Packet rrep;
    rrep.kind = net::PacketKind::kControl;
    rrep.origin = self();
    rrep.destination = p.origin;
    rrep.seq = h->rreq_id;
    rrep.ttl = 32;
    rrep.size_bytes = control_bytes(path.size());
    rrep.created_at = now();
    rrep.header = std::move(reply);
    // Send back along the accumulated path (we are the last element).
    unicast(path[path.size() - 2], std::move(rrep));
    return;
  }

  if (p.ttl <= 1) return;
  auto fwd_header = std::make_shared<DsrRreqHeader>(*h);
  fwd_header->path = std::move(path);
  net::Packet fwd = p;
  fwd.ttl -= 1;
  fwd.hops += 1;
  fwd.size_bytes = control_bytes(fwd_header->path.size());
  fwd.header = std::move(fwd_header);
  schedule(jitter(10.0), [this, fwd]() mutable { broadcast(std::move(fwd)); });
}

void DsrProtocol::handle_rrep(const net::Packet& p) {
  const auto* h = p.header_as<DsrRrepHeader>();
  VANET_ASSERT(h != nullptr);
  if (p.destination == self()) {
    VANET_ASSERT(!h->path.empty());
    const net::NodeId dst = h->path.back();
    CachedRoute route;
    route.path = h->path;
    route.established = now();
    route.expires = now() + core::SimTime::seconds(kRouteTtlSeconds);
    cache_[dst] = std::move(route);
    ++events().routes_established;
    discovery_attempts_.erase(dst);

    auto bit = buffer_.find(dst);
    if (bit != buffer_.end()) {
      std::vector<net::Packet> pending = std::move(bit->second);
      buffer_.erase(bit);
      for (auto& dp : pending) send_with_route(std::move(dp), h->path);
    }
    return;
  }
  // Relay the RREP toward the origin along the reversed path.
  auto it = std::find(h->path.begin(), h->path.end(), self());
  if (it == h->path.end() || it == h->path.begin()) return;
  net::Packet fwd = p;
  fwd.ttl -= 1;
  if (fwd.ttl <= 0) return;
  fwd.hops += 1;
  unicast(*(it - 1), std::move(fwd));
}

void DsrProtocol::handle_rerr(const net::Packet& p) {
  const auto* h = p.header_as<DsrRerrHeader>();
  VANET_ASSERT(h != nullptr);
  purge_routes_using(h->link_from, h->link_to);
  if (p.destination == self()) {
    // Rediscover in ascending-dst order: each start_discovery enqueues an
    // RREQ on this node's MAC FIFO, so hash-table iteration order would
    // leak straight into the event stream.
    std::vector<net::NodeId> stale;
    for (const auto& [dst, packets] : buffer_) {  // NOLINT-vanet(unordered-iter): sorted below
      if (!packets.empty() && !discovery_attempts_.contains(dst)) {
        stale.push_back(dst);
      }
    }
    std::sort(stale.begin(), stale.end());
    for (net::NodeId dst : stale) {
      discovery_attempts_[dst] = 0;
      start_discovery(dst);
    }
    return;
  }
  // Relay the RERR toward the origin along the reversed data path.
  auto it = std::find(h->path.begin(), h->path.end(), self());
  if (it == h->path.end() || it == h->path.begin()) return;
  net::Packet fwd = p;
  fwd.ttl -= 1;
  if (fwd.ttl <= 0) return;
  unicast(*(it - 1), std::move(fwd));
}

net::NodeId DsrProtocol::next_in_path(const std::vector<net::NodeId>& path) const {
  auto it = std::find(path.begin(), path.end(), self());
  if (it == path.end() || it + 1 == path.end()) return net::kBroadcastId;
  return *(it + 1);
}

void DsrProtocol::send_with_route(net::Packet p,
                                  const std::vector<net::NodeId>& path) {
  auto h = std::make_shared<DsrDataHeader>();
  h->path = path;
  p.header = std::move(h);
  const net::NodeId next = next_in_path(path);
  if (next == net::kBroadcastId) {
    ++events().data_dropped_no_route;
    return;
  }
  p.ttl = static_cast<int>(path.size()) + 2;
  charge_hop(p);
  unicast(next, std::move(p));
}

void DsrProtocol::handle_data(const net::Packet& p) {
  if (p.destination == self()) {
    deliver(p);
    return;
  }
  const auto* h = p.header_as<DsrDataHeader>();
  if (h == nullptr) return;
  const net::NodeId next = next_in_path(h->path);
  if (next == net::kBroadcastId) {
    ++events().data_dropped_no_route;
    return;
  }
  net::Packet fwd = p;
  if (!spend_ttl(fwd)) return;
  charge_hop(fwd);
  unicast(next, std::move(fwd));
}

void DsrProtocol::handle_unicast_failure(const net::Packet& p) {
  if (p.kind != net::PacketKind::kData) return;
  const auto* h = p.header_as<DsrDataHeader>();
  if (h == nullptr) return;
  ++events().route_breaks;
  purge_routes_using(self(), p.rx);

  if (p.origin == self()) {
    // Salvage: requeue and rediscover.
    auto& q = buffer_[p.destination];
    if (q.size() < kBufferCap) {
      net::Packet retry = p;
      retry.header.reset();
      q.push_back(std::move(retry));
    }
    if (!discovery_attempts_.contains(p.destination)) {
      discovery_attempts_[p.destination] = 0;
      start_discovery(p.destination);
    }
    return;
  }
  ++events().data_dropped_no_route;
  // Report the broken link to the source along the reverse path.
  auto it = std::find(h->path.begin(), h->path.end(), self());
  if (it == h->path.end() || it == h->path.begin()) return;
  auto err = std::make_shared<DsrRerrHeader>();
  err->link_from = self();
  err->link_to = p.rx;
  err->path = h->path;
  net::Packet rerr;
  rerr.kind = net::PacketKind::kControl;
  rerr.origin = self();
  rerr.destination = p.origin;
  rerr.ttl = 32;
  rerr.size_bytes = 24;
  rerr.created_at = now();
  rerr.header = std::move(err);
  unicast(*(it - 1), std::move(rerr));
}

const DsrProtocol::CachedRoute* DsrProtocol::cached_route(net::NodeId dst) const {
  auto it = cache_.find(dst);
  if (it == cache_.end()) return nullptr;
  if (it->second.expires <= now()) return nullptr;
  return &it->second;
}

void DsrProtocol::purge_routes_using(net::NodeId a, net::NodeId b) {
  // NOLINT-vanet(unordered-iter): pure erase sweep; each entry is tested independently and visit order cannot escape
  for (auto it = cache_.begin(); it != cache_.end();) {
    const auto& path = it->second.path;
    bool uses = false;
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
      if ((path[k] == a && path[k + 1] == b) ||
          (path[k] == b && path[k + 1] == a)) {
        uses = true;
        break;
      }
    }
    it = uses ? cache_.erase(it) : ++it;
  }
}

}  // namespace vanet::routing

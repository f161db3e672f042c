#include "routing/connectivity/dsdv.h"

#include <algorithm>
#include <memory>

#include "core/assert.h"

namespace vanet::routing {

void DsdvProtocol::start() {
  table_[self()] = TableEntry{self(), 0, own_seq_};
  // Desynchronise first advertisements across nodes.
  schedule(jitter(kUpdateIntervalSeconds * 1e3), [this] { periodic_update(); });
}

void DsdvProtocol::periodic_update() {
  own_seq_ += 2;  // even = valid
  table_[self()] = TableEntry{self(), 0, own_seq_};
  advertise();
  schedule(core::SimTime::seconds(kUpdateIntervalSeconds) + jitter(200.0),
           [this] { periodic_update(); });
}

void DsdvProtocol::advertise() {
  auto h = std::make_shared<DsdvHeader>();
  h->entries.reserve(table_.size());
  for (const auto& [dst, e] : table_) {  // NOLINT-vanet(unordered-iter): sorted below
    h->entries.push_back(DsdvHeader::Entry{dst, e.metric, e.seq});
  }
  // Advertisement content must not depend on hash-table iteration order:
  // receivers process entries independently per dst, so sorting is
  // behavior-neutral, but it keeps the packet bytes stdlib-independent.
  std::sort(h->entries.begin(), h->entries.end(),
            [](const DsdvHeader::Entry& a, const DsdvHeader::Entry& b) {
              return a.dst < b.dst;
            });
  net::Packet p;
  p.kind = net::PacketKind::kControl;
  p.origin = self();
  p.destination = net::kBroadcastId;
  p.ttl = 1;  // table dumps are single-hop
  p.size_bytes = 8 + 10 * h->entries.size();
  p.created_at = now();
  p.header = std::move(h);
  broadcast(std::move(p));
}

void DsdvProtocol::handle_frame(const net::Packet& p) {
  if (p.kind == net::PacketKind::kData) {
    if (p.destination == self()) {
      deliver(p);
      return;
    }
    if (const TableEntry* e = valid_route(p.destination)) {
      net::Packet fwd = p;
      if (!spend_ttl(fwd)) return;
      charge_hop(fwd);
      unicast(e->next_hop, std::move(fwd));
    } else {
      ++events().data_dropped_no_route;
    }
    return;
  }
  const auto* h = p.header_as<DsdvHeader>();
  if (h == nullptr) return;

  const net::NodeId from = p.origin;
  for (const auto& adv : h->entries) {
    if (adv.dst == self()) continue;
    const std::uint16_t metric =
        adv.metric == kInfMetric ? kInfMetric
                                 : static_cast<std::uint16_t>(adv.metric + 1);
    auto it = table_.find(adv.dst);
    const bool newer = it == table_.end() || adv.seq > it->second.seq;
    const bool same_but_better =
        it != table_.end() && adv.seq == it->second.seq &&
        metric < it->second.metric;
    if (newer || same_but_better) {
      table_[adv.dst] = TableEntry{from, metric, adv.seq};
    }
  }
}

bool DsdvProtocol::originate(net::NodeId dst, std::uint32_t flow,
                             std::uint32_t seq, std::size_t bytes) {
  net::Packet p = make_data(dst, flow, seq, bytes);
  p.ttl = 32;
  if (const TableEntry* e = valid_route(dst)) {
    charge_hop(p);
    unicast(e->next_hop, std::move(p));
    return true;
  }
  ++events().data_dropped_no_route;
  return false;
}

void DsdvProtocol::handle_unicast_failure(const net::Packet& p) {
  // Invalidate every route through the unreachable next hop: odd sequence
  // numbers mark broken routes until the destination re-advertises.
  const net::NodeId broken = p.rx;
  bool changed = false;
  // NOLINT-vanet(unordered-iter): each entry is invalidated independently; visit order cannot escape
  for (auto& [dst, e] : table_) {
    if (dst != self() && (e.next_hop == broken || dst == broken) &&
        e.metric != kInfMetric) {
      e.metric = kInfMetric;
      e.seq += 1;
      changed = true;
    }
  }
  if (p.kind == net::PacketKind::kData) {
    ++events().route_breaks;
    ++events().data_dropped_no_route;
  }
  if (changed) advertise();
}

const DsdvProtocol::TableEntry* DsdvProtocol::valid_route(
    net::NodeId dst) const {
  auto it = table_.find(dst);
  if (it == table_.end() || it->second.metric == kInfMetric) return nullptr;
  return &it->second;
}

}  // namespace vanet::routing

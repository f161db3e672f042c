#include "net/hello.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/assert.h"

namespace vanet::net {

void NeighborTable::update(const NeighborInfo& info) {
  auto it = std::ranges::lower_bound(rows_, info.id, {}, &NeighborInfo::id);
  if (it != rows_.end() && it->id == info.id) {
    *it = info;
  } else {
    rows_.insert(it, info);
  }
}

const NeighborInfo* NeighborTable::find(NodeId id) const {
  auto it = std::ranges::lower_bound(rows_, id, {}, &NeighborInfo::id);
  return it != rows_.end() && it->id == id ? &*it : nullptr;
}

std::vector<NodeId> NeighborTable::expire(core::SimTime now,
                                          core::SimTime expiry) {
  // One in-order pass: the rows are id-sorted, so `gone` comes out sorted.
  std::vector<NodeId> gone;
  std::erase_if(rows_, [&](const NeighborInfo& row) {
    if (now - row.last_heard <= expiry) return false;
    gone.push_back(row.id);
    return true;
  });
  return gone;
}

HelloService::HelloService(Network& net, core::Rng& rng, HelloConfig cfg)
    : net_{net}, rng_{rng}, cfg_{cfg} {
  // Thrown (not asserted): a bad sweep value must become a structured failure
  // row in the experiment engine, not a process abort.
  if (cfg_.interval <= core::SimTime::zero()) {
    throw std::invalid_argument("hello.interval_s must be > 0");
  }
  if (cfg_.expiry < cfg_.interval) {
    throw std::invalid_argument("hello.expiry_s must be >= hello.interval_s");
  }
}

void HelloService::start(const std::vector<NodeId>& ids) {
  VANET_ASSERT_MSG(!started_, "HelloService::start called twice");
  started_ = true;
  for (NodeId id : ids) {
    node(id).has_table = true;
    // Desynchronise initial beacons across one interval. Beacons re-arm with
    // per-firing jitter (variable period), sweeps are strictly periodic;
    // both reuse one pool slot per node for the whole run.
    const double offset = rng_.uniform(0.0, cfg_.interval.as_seconds());
    net_.simulator().schedule_recurring(
        core::SimTime::seconds(offset),
        [this, id](core::SimTime) { return send_beacon(id); });
    net_.simulator().schedule_every(cfg_.expiry, cfg_.interval,
                                    [this, id] { sweep(id); });
  }
}

core::SimTime HelloService::send_beacon(NodeId id) {
  auto header = std::make_shared<HelloHeader>();
  header->pos = net_.position(id);
  header->vel = net_.velocity(id);
  header->acc = net_.acceleration(id);
  header->rsu = net_.is_rsu(id);
  PerNode& n = nodes_[id];
  header->seq = n.beacon_seq++;
  const std::size_t extra_bytes = n.extension ? n.extension(*header) : 0;

  Packet p;
  p.kind = PacketKind::kHello;
  p.origin = id;
  p.destination = kBroadcastId;
  p.rx = kBroadcastId;
  p.ttl = 1;
  p.size_bytes = cfg_.beacon_bytes + extra_bytes;
  p.created_at = net_.simulator().now();
  p.header = std::move(header);
  net_.send(id, std::move(p));

  const double jitter =
      rng_.uniform(-cfg_.jitter_fraction, cfg_.jitter_fraction);
  const core::SimTime next = cfg_.interval * (1.0 + jitter);
  return net_.simulator().now() + next;
}

void HelloService::sweep(NodeId id) {
  PerNode& n = nodes_[id];
  for (NodeId lost : n.table.expire(net_.simulator().now(), cfg_.expiry)) {
    if (n.on_loss) n.on_loss(lost);
  }
}

void HelloService::on_frame(NodeId self, const Packet& p) {
  const auto* h = p.header_as<HelloHeader>();
  VANET_ASSERT_MSG(h != nullptr, "hello frame without HelloHeader");
  PerNode& n = node(self);
  n.has_table = true;
  n.table.update({.id = p.origin, .pos = h->pos, .vel = h->vel, .acc = h->acc,
                  .rsu = h->rsu, .last_heard = net_.simulator().now()});
  if (n.observer) n.observer(p, *h);
}

HelloService::PerNode& HelloService::node(NodeId id) {
  if (id >= nodes_.size()) nodes_.resize(std::size_t{id} + 1);
  return nodes_[id];
}

const NeighborTable& HelloService::table(NodeId id) const {
  VANET_ASSERT_MSG(id < nodes_.size() && nodes_[id].has_table,
                   "no table for node");
  return nodes_[id].table;
}

void HelloService::set_loss_callback(NodeId id,
                                     std::function<void(NodeId)> fn) {
  node(id).on_loss = std::move(fn);
}

void HelloService::set_beacon_extension(NodeId id, BeaconExtension fn) {
  node(id).extension = std::move(fn);
}

void HelloService::set_frame_observer(NodeId id, FrameObserver fn) {
  node(id).observer = std::move(fn);
}

}  // namespace vanet::net

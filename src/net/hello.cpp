#include "net/hello.h"

#include <algorithm>
#include <memory>

#include "core/assert.h"

namespace vanet::net {

BeaconStore::Index BeaconStore::intern(std::uint64_t uid,
                                       const NeighborInfo& info) {
  if (last_ != kNone && last_uid_ == uid) {
    const NeighborInfo& last = (*this)[last_];
    if (last.id == info.id && last.last_heard == info.last_heard) return last_;
  }
  Index i;
  if (!free_.empty()) {
    i = free_.back();
    free_.pop_back();
  } else {
    i = static_cast<Index>(refs_.size());
    VANET_ASSERT_MSG(i != kNone, "beacon store full");
    if (i % kChunk == 0) {
      chunks_.push_back(std::make_unique<NeighborInfo[]>(kChunk));
    }
    refs_.push_back(0);
  }
  chunks_[i / kChunk][i % kChunk] = info;
  last_ = i;
  last_uid_ = uid;
  return i;
}

void BeaconStore::release(Index i) {
  VANET_ASSERT(refs_[i] > 0);
  if (--refs_[i] > 0) return;
  free_.push_back(i);
  if (i == last_) last_ = kNone;
}

void NeighborTable::update(BeaconStore::Index record) {
  const NeighborInfo& info = (*store_)[record];
  store_->retain(record);
  auto it = std::ranges::lower_bound(rows_, info.id, {}, &NeighborRow::id);
  if (it != rows_.end() && it->id == info.id) {
    store_->release(it->record);
    it->record = record;
    it->last_heard = info.last_heard;
  } else {
    rows_.insert(it, {info.id, record, info.last_heard});
  }
}

const NeighborInfo* NeighborTable::find(NodeId id) const {
  auto it = std::ranges::lower_bound(rows_, id, {}, &NeighborRow::id);
  return it != rows_.end() && it->id == id ? &(*store_)[it->record] : nullptr;
}

std::vector<NodeId> NeighborTable::expire(core::SimTime now,
                                          core::SimTime expiry) {
  // One in-order pass: the rows are id-sorted, so `gone` comes out sorted.
  std::vector<NodeId> gone;
  std::erase_if(rows_, [&](const NeighborRow& row) {
    if (now - row.last_heard <= expiry) return false;
    gone.push_back(row.id);
    store_->release(row.record);
    return true;
  });
  return gone;
}

HelloService::HelloService(Network& net, core::Rng& rng, HelloConfig cfg)
    : net_{net}, rng_{rng}, cfg_{cfg} {}

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
  n.table.update(store_.intern(
      p.uid, {.id = p.origin, .pos = h->pos, .vel = h->vel, .acc = h->acc,
              .rsu = h->rsu, .last_heard = net_.simulator().now()}));
  if (n.observer) n.observer(p);
}

HelloService::PerNode& HelloService::node(NodeId id) {
  while (id >= nodes_.size()) nodes_.emplace_back(store_);
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

#include "net/hello.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/assert.h"

namespace vanet::net {

const NeighborInfo* NeighborTable::find(NodeId id) const {
  auto it = map_.find(id);
  return it != map_.end() ? &it->second : nullptr;
}

std::vector<NeighborInfo> NeighborTable::snapshot() const {
  std::vector<NeighborInfo> out;
  out.reserve(map_.size());
  // NOLINT-vanet(unordered-iter): order cannot escape — sorted by id below
  for (const auto& [id, info] : map_) out.push_back(info);
  std::sort(out.begin(), out.end(),
            [](const NeighborInfo& a, const NeighborInfo& b) { return a.id < b.id; });
  return out;
}

std::vector<NodeId> NeighborTable::expire(core::SimTime now,
                                          core::SimTime expiry) {
  std::vector<NodeId> gone;
  // NOLINT-vanet(unordered-iter): expiry test is per-entry; `gone` is sorted below, erase order cannot escape
  for (auto it = map_.begin(); it != map_.end();) {
    if (now - it->second.last_heard > expiry) {
      gone.push_back(it->first);
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(gone.begin(), gone.end());
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
    tables_.try_emplace(id);
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
  header->seq = beacon_seqs_[id]++;
  std::size_t extra_bytes = 0;
  if (auto ext = beacon_extensions_.find(id);
      ext != beacon_extensions_.end() && ext->second) {
    extra_bytes = ext->second(*header);
  }

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
  auto& table = tables_[id];
  const auto gone = table.expire(net_.simulator().now(), cfg_.expiry);
  auto cb = loss_callbacks_.find(id);
  if (cb != loss_callbacks_.end() && cb->second) {
    for (NodeId lost : gone) cb->second(lost);
  }
}

void HelloService::on_frame(NodeId self, const Packet& p) {
  const auto* h = p.header_as<HelloHeader>();
  VANET_ASSERT_MSG(h != nullptr, "hello frame without HelloHeader");
  NeighborInfo info;
  info.id = p.origin;
  info.pos = h->pos;
  info.vel = h->vel;
  info.acc = h->acc;
  info.rsu = h->rsu;
  info.last_heard = net_.simulator().now();
  tables_[self].update(info);
  if (auto obs = frame_observers_.find(self);
      obs != frame_observers_.end() && obs->second) {
    obs->second(p, *h);
  }
}

const NeighborTable& HelloService::table(NodeId id) const {
  auto it = tables_.find(id);
  VANET_ASSERT_MSG(it != tables_.end(), "no table for node");
  return it->second;
}

void HelloService::set_loss_callback(NodeId id,
                                     std::function<void(NodeId)> fn) {
  loss_callbacks_[id] = std::move(fn);
}

void HelloService::set_beacon_extension(NodeId id, BeaconExtension fn) {
  beacon_extensions_[id] = std::move(fn);
}

void HelloService::set_frame_observer(NodeId id, FrameObserver fn) {
  frame_observers_[id] = std::move(fn);
}

}  // namespace vanet::net

#include "net/network.h"

#include <algorithm>
#include <limits>

#include "core/assert.h"

namespace vanet::net {

namespace {

/// `extent` grown over the vehicles' current positions.
core::Box with_population(core::Box extent,
                          const mobility::MobilityManager* mobility) {
  if (mobility != nullptr) {
    for (const auto& v : mobility->vehicles()) extent.expand(v.pos);
  }
  return extent;
}

}  // namespace

Network::Network(core::Simulator& sim, mobility::MobilityManager* mobility,
                 std::unique_ptr<PropagationModel> propagation, core::Rng& rng,
                 NetworkConfig cfg, core::Box extent)
    : sim_{sim},
      mobility_{mobility},
      propagation_{(VANET_ASSERT(propagation != nullptr),
                    std::move(propagation))},
      rng_{rng},
      cfg_{cfg},
      interference_range_{propagation_->max_range() *
                          cfg_.interference_range_factor},
      grid_{std::max(50.0, propagation_->max_range()),
            with_population(extent, mobility)},
      channel_{interference_range_, with_population(extent, mobility)} {
  VANET_ASSERT(cfg_.bitrate_bps > 0.0);
  VANET_ASSERT(cfg_.interference_range_factor >= 1.0);
  if (mobility_ != nullptr) {
    mobility_->add_tick_listener([this](core::SimTime) { on_mobility_tick(); });
    // One allocation for the vehicle population, not one per doubling.
    nodes_.reserve(mobility_->vehicles().size());
    pos_cache_.reserve(mobility_->vehicles().size());
  }
}

Network::NodeImpl& Network::impl(NodeId id) {
  VANET_ASSERT_MSG(id < nodes_.size(), "unknown node id");
  return nodes_[id];
}

const Network::NodeImpl& Network::impl(NodeId id) const {
  VANET_ASSERT_MSG(id < nodes_.size(), "unknown node id");
  return nodes_[id];
}

NodeId Network::add_vehicle_node(mobility::VehicleId vid) {
  VANET_ASSERT_MSG(mobility_ != nullptr, "vehicle node requires mobility");
  const auto id = static_cast<NodeId>(nodes_.size());
  VANET_ASSERT_MSG(id == vid,
                   "vehicle nodes must be added in vehicle-id order before RSUs");
  NodeImpl node;
  node.id = id;
  node.vehicle = vid;
  nodes_.push_back(std::move(node));
  const core::Vec2 pos = mobility_->state(vid).pos;
  pos_cache_.push_back(pos);
  grid_.insert(id, pos);
  if (churn_active_) {
    recovery_pending_.push_back(false);
    recovery_started_.push_back(core::SimTime{});
  }
  return id;
}

NodeId Network::add_rsu(core::Vec2 pos) {
  const auto id = static_cast<NodeId>(nodes_.size());
  NodeImpl node;
  node.id = id;
  node.rsu = true;
  node.fixed_pos = pos;
  nodes_.push_back(std::move(node));
  pos_cache_.push_back(pos);
  grid_.insert(id, pos);
  if (churn_active_) {
    recovery_pending_.push_back(false);
    recovery_started_.push_back(core::SimTime{});
  }
  return id;
}

void Network::set_node_up(NodeId id, bool up) {
  NodeImpl& node = impl(id);
  if (!churn_active_) {
    churn_active_ = true;
    recovery_pending_.assign(nodes_.size(), false);
    recovery_started_.assign(nodes_.size(), core::SimTime{});
  }
  if (node.up == up) return;
  node.up = up;
  if (!up) {
    // Crash: the queue is lost and any frame in flight is aborted. The
    // channel record of an aborted frame stays — it already radiated and
    // must keep colliding with overlapping receptions.
    node.queue = {};
    node.transmitting = false;
    node.current_tx = ChannelState::kInvalidHandle;
    recovery_pending_[id] = false;
  } else {
    recovery_pending_[id] = true;
    recovery_started_[id] = sim_.now();
  }
}

void Network::connect_backbone() {
  backbone_.clear();
  for (const auto& n : nodes_) {
    if (n.rsu) backbone_.push_back(n.id);
  }
}

std::vector<NodeId> Network::node_ids() const {
  std::vector<NodeId> out(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) out[i] = nodes_[i].id;
  return out;
}

std::vector<NodeId> Network::rsu_ids() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n.rsu) out.push_back(n.id);
  }
  return out;
}

bool Network::is_rsu(NodeId id) const { return impl(id).rsu; }

core::Vec2 Network::position(NodeId id) const {
  VANET_ASSERT_MSG(id < pos_cache_.size(), "unknown node id");
  return pos_cache_[id];
}

core::Vec2 Network::velocity(NodeId id) const {
  const NodeImpl& n = impl(id);
  return n.rsu ? core::Vec2{} : mobility_->state(n.vehicle).velocity();
}

core::Vec2 Network::acceleration(NodeId id) const {
  const NodeImpl& n = impl(id);
  return n.rsu ? core::Vec2{} : mobility_->state(n.vehicle).acceleration();
}

void Network::set_receive_handler(NodeId id, ReceiveHandler fn) {
  impl(id).on_receive = std::move(fn);
}

void Network::set_unicast_fail_handler(NodeId id, UnicastFailHandler fn) {
  impl(id).on_unicast_fail = std::move(fn);
}

void Network::on_mobility_tick() {
  // One pass over the model's state vector instead of a per-node hash lookup:
  // refresh the position cache and the spatial index together.
  for (const auto& v : mobility_->vehicles()) {
    if (v.id >= nodes_.size()) continue;
    const NodeImpl& n = nodes_[v.id];
    if (n.rsu || n.vehicle != v.id) continue;
    pos_cache_[v.id] = v.pos;
    grid_.update(v.id, v.pos);
  }
}

core::SimTime Network::frame_duration(const Packet& p) const {
  const double bits =
      static_cast<double>((p.size_bytes + cfg_.phy_overhead_bytes) * 8);
  return core::SimTime::seconds(bits / cfg_.bitrate_bps);
}

core::SimTime Network::random_backoff(core::Rng& rng) const {
  const auto slots = rng.uniform_int(0, cfg_.contention_window - 1);
  return cfg_.slot_time * slots;
}

void Network::count_sent(const Packet& p) {
  ++counters_.frames_sent;
  counters_.bytes_sent += p.size_bytes + cfg_.phy_overhead_bytes;
  switch (p.kind) {
    case PacketKind::kData: ++counters_.data_frames_sent; break;
    case PacketKind::kControl: ++counters_.control_frames_sent; break;
    case PacketKind::kHello: ++counters_.hello_frames_sent; break;
  }
}

void Network::send(NodeId from, Packet p) {
  NodeImpl& node = impl(from);
  if (!node.up) {
    ++counters_.frames_dropped_down;
    return;
  }
  p.tx = from;
  p.uid = next_uid_++;
  ++counters_.frames_enqueued;
  if (node.queue.size() >= cfg_.queue_capacity) {
    ++counters_.frames_dropped_queue;
    return;
  }
  node.queue.push_back(QueuedFrame{std::move(p), 0});
  if (!node.transmitting && !node.attempt_pending) {
    schedule_attempt(node, random_backoff(rng_));
  }
}

void Network::FrameQueue::push_back(QueuedFrame frame) {
  if (size_ == slots_.size()) {
    // Full: unroll the ring so the oldest frame is first, then double it.
    std::rotate(slots_.begin(),
                slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                slots_.end());
    head_ = 0;
    slots_.resize(std::max<std::size_t>(1, 2 * slots_.size()));
  }
  slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(frame);
  ++size_;
}

void Network::FrameQueue::pop_front() {
  slots_[head_] = {};  // drop the packet's header now, not when overwritten
  head_ = (head_ + 1) & (slots_.size() - 1);
  --size_;
}

void Network::schedule_attempt(NodeImpl& node, core::SimTime delay) {
  node.attempt_pending = true;
  const NodeId id = node.id;
  sim_.schedule(delay, [this, id] { attempt_transmission(id); });
}

void Network::attempt_transmission(NodeId id) {
  NodeImpl& node = impl(id);
  node.attempt_pending = false;
  if (!node.up || node.transmitting || node.queue.empty()) return;
  const core::SimTime now = sim_.now();
  // Prune before sensing so stale finished transmissions are not scanned.
  // Exact horizon: a frame still in flight started at or after
  // now - longest_frame_, and only records ending after a frame's start can
  // collide with it.
  channel_.prune(now - longest_frame_);
  const core::Vec2 pos = position(id);
  const core::SimTime busy_until =
      channel_.busy_until(pos, now, interference_range_);
  if (busy_until > now) {
    schedule_attempt(node,
                     busy_until - now + cfg_.slot_time + random_backoff(rng_));
    return;
  }
  const Packet& p = node.queue.front().packet;
  const core::SimTime duration = frame_duration(p);
  longest_frame_ = std::max(longest_frame_, duration);
  node.current_tx = channel_.add(id, now, now + duration, pos);
  node.transmitting = true;
  node.tx_until = now + duration;
  count_sent(p);
  sim_.schedule(duration, [this, id] { finish_transmission(id); });
}

void Network::finish_transmission(NodeId id) {
  NodeImpl& node = impl(id);
  const core::SimTime now = sim_.now();
  if (churn_active_ && (!node.transmitting || node.tx_until > now)) {
    // A crash aborted this frame mid-air: the transmit state was torn down
    // by set_node_up(false), so this finish event is stale. (tx_until > now
    // means the node already restarted and started a *new* frame, whose own
    // finish event is still scheduled — leave that one alone too.)
    return;
  }
  VANET_ASSERT(node.transmitting);
  node.transmitting = false;
  VANET_ASSERT(!node.queue.empty());
  const Packet packet = node.queue.front().packet;

  // Our channel record, stored at transmit time (a lookup by end time could
  // alias when two frames end at the same instant).
  VANET_ASSERT_MSG(node.current_tx != ChannelState::kInvalidHandle,
                   "missing active transmission record");
  const ChannelState::Handle self_tx = node.current_tx;
  node.current_tx = ChannelState::kInvalidHandle;
  const ChannelState::Tx tx = channel_.get(self_tx);

  const bool fade_free = propagation_->always_receives_in_range();
  bool intended_received = false;

  // One time-window filter for the whole frame; each receiver below answers
  // the collision question with a linear scan of the snapshot (the channel is
  // not mutated inside this loop — receive handlers only enqueue frames and
  // schedule events). Receivers lie within max_range of the sender, so only
  // transmissions within max_range + interference_range of it can matter.
  const double max_range = propagation_->max_range();
  channel_.begin_overlap(tx.start, tx.end, self_tx, tx.pos,
                         max_range + interference_range_);
  grid_.query_radius_into(tx.pos, max_range, id, rx_scratch_);
  for (NodeId cand : rx_scratch_) {
    NodeImpl& rx_node = impl(cand);
    // A crashed radio hears nothing (and consumes no fade draw, so churn
    // perturbs no other node's randomness).
    if (!rx_node.up) continue;
    // Half duplex: a node transmitting during our frame cannot receive it.
    if (rx_node.transmitting ||
        (rx_node.tx_until > tx.start && rx_node.tx_until <= now)) {
      continue;
    }
    const core::Vec2 rx_pos = position(cand);
    if (!fade_free &&
        !propagation_->try_receive((rx_pos - tx.pos).norm(), rng_)) {
      ++counters_.receptions_faded;
      continue;
    }
    // Collision: any other transmission overlapping ours, audible at rx.
    if (channel_.overlap_near(rx_pos, interference_range_)) {
      ++counters_.receptions_collided;
      continue;
    }
    // First frame decoded after a restart closes that node's recovery window.
    if (churn_active_ && recovery_pending_[cand]) {
      recovery_pending_[cand] = false;
      recovery_latency_.add((now - recovery_started_[cand]).as_seconds());
    }
    if (packet.rx != kBroadcastId && packet.rx != cand) continue;
    ++counters_.receptions_ok;
    if (cand == packet.rx) intended_received = true;
    if (rx_node.on_receive) rx_node.on_receive(packet);
  }

  // Unicast retry / failure bookkeeping.
  bool keep_frame = false;
  if (packet.rx != kBroadcastId && !intended_received) {
    // The failure handler may send at this node, which can regrow the queue:
    // `attempts` is not touched after it.
    int& attempts = node.queue.front().attempts;
    if (attempts < cfg_.unicast_retry_limit) {
      ++attempts;
      ++counters_.unicast_retries;
      keep_frame = true;
    } else {
      ++counters_.unicast_failures;
      if (node.on_unicast_fail) node.on_unicast_fail(packet);
    }
  }
  if (!keep_frame) node.queue.pop_front();
  if (!node.queue.empty() && !node.attempt_pending) {
    schedule_attempt(node, cfg_.slot_time + random_backoff(rng_));
  }
}

void Network::backbone_send(NodeId from_rsu, NodeId to_rsu, Packet p) {
  VANET_ASSERT_MSG(backbone_connected(from_rsu, to_rsu),
                   "backbone_send between unconnected nodes");
  if (!impl(from_rsu).up) {
    ++counters_.frames_dropped_down;
    return;
  }
  p.tx = from_rsu;
  p.rx = to_rsu;
  p.uid = next_uid_++;
  ++counters_.backbone_frames;
  sim_.schedule(cfg_.backbone_delay, [this, to_rsu, p = std::move(p)] {
    const NodeImpl& dst = impl(to_rsu);
    if (!dst.up) return;  // RSU outage: the wired frame dies at the port
    if (dst.on_receive) dst.on_receive(p);
  });
}

bool Network::backbone_connected(NodeId a, NodeId b) const {
  const bool a_in = std::find(backbone_.begin(), backbone_.end(), a) != backbone_.end();
  const bool b_in = std::find(backbone_.begin(), backbone_.end(), b) != backbone_.end();
  return a_in && b_in && a != b;
}

std::vector<std::uint32_t> Network::reachability_components(double range) const {
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  // CSR adjacency of the range-disk graph: one grid query per node instead of
  // one BFS (each redoing those queries) per reachability probe.
  std::vector<std::uint32_t> offsets(n + 1, 0);
  std::vector<NodeId> adjacency;
  adjacency.reserve(n * 4);
  std::vector<NodeId> neighbors;
  for (std::uint32_t u = 0; u < n; ++u) {
    grid_.query_radius_into(pos_cache_[u], range, u, neighbors);
    adjacency.insert(adjacency.end(), neighbors.begin(), neighbors.end());
    offsets[u + 1] = static_cast<std::uint32_t>(adjacency.size());
  }

  constexpr auto kUnlabeled = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> labels(n, kUnlabeled);
  const bool backbone_live = !backbone_.empty();
  std::vector<NodeId> stack;
  std::uint32_t next_label = 0;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (labels[root] != kUnlabeled) continue;
    const std::uint32_t label = next_label++;
    labels[root] = label;
    // A down node is its own singleton component: labeled, never traversed.
    if (churn_active_ && !nodes_[root].up) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      auto visit = [&](NodeId v) {
        if (churn_active_ && !nodes_[v].up) return;
        if (labels[v] == kUnlabeled) {
          labels[v] = label;
          stack.push_back(v);
        }
      };
      for (std::uint32_t k = offsets[u]; k < offsets[u + 1]; ++k) {
        visit(adjacency[k]);
      }
      if (backbone_live && nodes_[u].rsu) {
        for (NodeId v : backbone_) {
          if (v != u) visit(v);
        }
      }
    }
  }
  return labels;
}

}  // namespace vanet::net

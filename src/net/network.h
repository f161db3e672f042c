// The wireless network: nodes, channel and a contention MAC.
//
// MAC model (a deliberately small slice of 802.11p, documented in DESIGN.md):
//  - per-node FIFO transmit queue with bounded capacity;
//  - carrier sense before transmitting; busy channel defers the attempt by a
//    random backoff (uniform slots), idle channel starts after a short jitter;
//  - a frame occupies the channel for (bytes + phy overhead) * 8 / bitrate;
//  - a receiver within `max_range` of the transmitter decodes the frame iff
//    (a) the propagation model's per-reception draw succeeds,
//    (b) no other transmission audible at the receiver overlapped in time
//        (otherwise: collision), and
//    (c) the receiver was not itself transmitting (half duplex).
//  - unicast frames are retried up to `unicast_retry_limit` times when the
//    intended receiver failed to decode; exhaustion invokes the node's
//    unicast-failure handler (this models the missing link-layer ACK).
//
// RSUs are static nodes; `connect_backbone()` joins all RSUs with an ideal
// wired network (fixed small delay, no loss) per Sec. V.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/stats.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "core/spatial_grid.h"
#include "core/vec2.h"
#include "mobility/mobility_manager.h"
#include "net/channel_state.h"
#include "net/packet.h"
#include "net/propagation.h"

namespace vanet::net {

struct NetworkConfig {
  double bitrate_bps = 6e6;                          ///< 802.11p base rate
  core::SimTime slot_time = core::SimTime::micros(13);
  int contention_window = 32;                        ///< backoff slots
  int unicast_retry_limit = 3;
  std::size_t queue_capacity = 128;
  std::size_t phy_overhead_bytes = 40;               ///< preamble + MAC header
  core::SimTime backbone_delay = core::SimTime::millis(2);
  /// Interference reaches this multiple of max_range (>= 1).
  double interference_range_factor = 1.0;
};

/// Channel/MAC accounting, aggregated over all nodes.
struct NetCounters {
  std::uint64_t frames_enqueued = 0;
  std::uint64_t frames_sent = 0;         ///< transmissions started
  std::uint64_t frames_dropped_queue = 0;
  std::uint64_t frames_dropped_down = 0; ///< send() on a crashed radio
  std::uint64_t receptions_ok = 0;
  std::uint64_t receptions_collided = 0;
  std::uint64_t receptions_faded = 0;    ///< propagation draw failed
  std::uint64_t unicast_retries = 0;
  std::uint64_t unicast_failures = 0;
  std::uint64_t backbone_frames = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t data_frames_sent = 0;
  std::uint64_t control_frames_sent = 0;
  std::uint64_t hello_frames_sent = 0;
};

class Network {
 public:
  using ReceiveHandler = std::function<void(const Packet&)>;
  using UnicastFailHandler = std::function<void(const Packet&)>;

  /// `mobility` may be null for fully static topologies (tests). The radio
  /// grids are sized once, to `extent` (the road map's box, when there is
  /// one) grown over the initial vehicle population; nodes straying outside
  /// it stay exact, just slower to query.
  Network(core::Simulator& sim, mobility::MobilityManager* mobility,
          std::unique_ptr<PropagationModel> propagation, core::Rng& rng,
          NetworkConfig cfg = {}, core::Box extent = {});

  /// Adds a node tracking the given vehicle. Node id == vehicle id; vehicle
  /// nodes must be added before any RSU so the id spaces align.
  NodeId add_vehicle_node(mobility::VehicleId vid);
  /// Adds a static roadside unit at `pos`.
  NodeId add_rsu(core::Vec2 pos);
  /// Wire all current RSUs into one ideal backbone.
  void connect_backbone();

  std::size_t node_count() const { return nodes_.size(); }
  std::vector<NodeId> node_ids() const;
  std::vector<NodeId> rsu_ids() const;
  bool is_rsu(NodeId id) const;

  /// Crash (`up=false`) or restart (`up=true`) a node's radio. Down nodes
  /// refuse tx and rx: send() drops (frames_dropped_down), the transmit
  /// queue is lost, a frame in flight when the radio dies reaches nobody,
  /// receptions skip the node, and the reachability oracles treat it as
  /// isolated. Neighbor tables are NOT touched — hello state ages out
  /// naturally at the receivers. Driven by sim::FaultPlan; no-op when the
  /// node is already in the requested state.
  void set_node_up(NodeId id, bool up);
  bool node_up(NodeId id) const { return impl(id).up; }
  /// Restart-to-first-decoded-frame latency, seconds, over all restarts
  /// whose recovery completed (fault recovery metric).
  const analysis::RunningStats& recovery_latency() const {
    return recovery_latency_;
  }

  core::Vec2 position(NodeId id) const;
  /// Zero for RSUs.
  core::Vec2 velocity(NodeId id) const;
  core::Vec2 acceleration(NodeId id) const;

  void set_receive_handler(NodeId id, ReceiveHandler fn);
  void set_unicast_fail_handler(NodeId id, UnicastFailHandler fn);

  /// Enqueue a frame at `from`'s MAC. Sets p.tx = from and assigns p.uid.
  void send(NodeId from, Packet p);

  /// Ideal wired transfer between two backbone-connected RSUs.
  void backbone_send(NodeId from_rsu, NodeId to_rsu, Packet p);
  bool backbone_connected(NodeId a, NodeId b) const;

  double nominal_range() const { return propagation_->nominal_range(); }
  const PropagationModel& propagation() const { return *propagation_; }

  /// Ground-truth multi-hop reachability, the oracle for experiment
  /// calibration: a connected-component label per node of the `range`-disk
  /// graph (RSU backbone links included). A routing protocol can never
  /// deliver between nodes with different labels. A down node is its own
  /// component. Builds one CSR adjacency and labels every component in a
  /// single traversal.
  std::vector<std::uint32_t> reachability_components(double range) const;

  const NetCounters& counters() const { return counters_; }
  core::Simulator& simulator() { return sim_; }

 private:
  struct QueuedFrame {
    Packet packet;
    int attempts = 0;
  };
  /// A node's transmit FIFO: a ring that allocates nothing until the node
  /// first sends and then doubles only when its backlog outgrows it.
  /// `push_back` may move every queued frame, so a reference to `front()`
  /// must not be held across a callback that can send at this node.
  class FrameQueue {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    QueuedFrame& front() { return slots_[head_]; }
    void push_back(QueuedFrame frame);
    void pop_front();

   private:
    std::vector<QueuedFrame> slots_;  ///< size 0 or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };
  struct NodeImpl {
    NodeId id = 0;
    bool rsu = false;
    bool up = true;  ///< radio alive (see set_node_up)
    core::Vec2 fixed_pos;  ///< RSU position
    mobility::VehicleId vehicle = 0;
    ReceiveHandler on_receive;
    UnicastFailHandler on_unicast_fail;
    FrameQueue queue;
    bool transmitting = false;
    core::SimTime tx_until{};
    bool attempt_pending = false;
    /// Channel record of the in-flight frame while `transmitting`.
    ChannelState::Handle current_tx = ChannelState::kInvalidHandle;
  };

  NodeImpl& impl(NodeId id);
  const NodeImpl& impl(NodeId id) const;
  void on_mobility_tick();
  void schedule_attempt(NodeImpl& node, core::SimTime delay);
  void attempt_transmission(NodeId id);
  void finish_transmission(NodeId id);
  core::SimTime frame_duration(const Packet& p) const;
  core::SimTime random_backoff(core::Rng& rng) const;
  void count_sent(const Packet& p);

  core::Simulator& sim_;
  mobility::MobilityManager* mobility_;
  std::unique_ptr<PropagationModel> propagation_;
  core::Rng& rng_;
  NetworkConfig cfg_;
  /// max_range * interference_range_factor, cached off the virtual call; the
  /// carrier-sense and collision radius, and the channel index cell size.
  double interference_range_;
  std::vector<NodeImpl> nodes_;
  core::SpatialGrid grid_;
  ChannelState channel_;
  /// Node positions refreshed once per mobility tick (vehicles only move on
  /// ticks, so this is exact) — position() is O(1) with no hash lookup.
  std::vector<core::Vec2> pos_cache_;
  std::vector<NodeId> backbone_;
  /// Reusable reception-candidate buffer (one fan-out per finished frame).
  std::vector<NodeId> rx_scratch_;
  std::uint64_t next_uid_ = 1;
  NetCounters counters_;
  /// Longest frame duration started so far (a monotone max). The channel
  /// keeps a finished transmission this long, because a frame still in
  /// flight may overlap it.
  core::SimTime longest_frame_{};
  /// False until the first set_node_up call: fault-free runs skip every
  /// per-reception down/recovery check behind this single flag, so the hot
  /// path (and its digests) is untouched when churn is not in play.
  bool churn_active_ = false;
  std::vector<bool> recovery_pending_;   ///< restarted, no frame decoded yet
  std::vector<core::SimTime> recovery_started_;
  analysis::RunningStats recovery_latency_;
};

}  // namespace vanet::net

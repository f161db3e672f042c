// Region-sharded execution of one scenario: one event loop per map region.
//
// The serial run drives every event through one Simulator. A sharded run
// (`scenario.shards=K`) partitions the road graph into K contiguous regions
// (map::partition_regions); the Scenario builds one NodeStack per region on
// that shard's loop, and this runtime advances the shards in lockstep
// windows of kWindow under a conservative-lookahead contract. It owns only
// what sharding alone needs — partition and ownership, the per-shard loops
// and bridges, the mailboxes and the worker pool — never a network, a
// protocol or a traffic source.
//
//  - Ownership: every node belongs to exactly one shard — the region owning
//    the road segment nearest its *initial* position. The owner drives the
//    node's MAC, protocol instance and hello beacons ("owner wins"); every
//    other shard holds a read-only position mirror (its Network replica
//    tracks all N vehicles off the shared MobilityManager), so carrier
//    sense and reception fan-out see the same geometry everywhere.
//  - Windows: all shards execute events in [T, T+W) independently, then
//    barrier. Cross-shard receptions discovered inside a window are posted
//    through net::ShardBridge into per-(src,dst) mailboxes and resolved by
//    the receiver's shard at the next barrier — at most W late.
//  - The coordinator loop owns global services (mobility ticks, the density
//    oracle refresh, reachability sampling) and only runs between windows;
//    window edges always land exactly on coordinator event times, so
//    position updates happen at the same simulated instants as serially.
//  - Determinism: partition, ownership, per-shard RNG streams and mailbox
//    drain order (source shard 0..K-1, generation order within a source)
//    are all pure functions of the config — results are bit-identical for
//    any worker-thread count, which the digest-equivalence tests pin
//    (threads=1 vs threads=K).
//
// Restrictions (validated at construction): phy=unitdisk (cross-cut
// receptions must not consume fade draws), no RSUs and no fault plan. See
// docs/ARCHITECTURE.md "Sharded engine" for the full fidelity contract and
// the documented deviations from the serial MAC at region cuts.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "core/simulator.h"
#include "map/segment_index.h"
#include "mobility/vehicle.h"
#include "net/network.h"
#include "net/shard_bridge.h"

namespace vanet::sim {
struct ScenarioConfig;
}  // namespace vanet::sim

namespace vanet::sim::sharded {

/// Conservative lookahead window. A cross-shard frame resolves at most one
/// window after it ends, so every Network keeps its channel history this
/// much longer (ShardBridge::handoff_lateness).
inline constexpr core::SimTime kWindow = core::SimTime::millis(1);

/// One buffered cross-shard message: a reception handoff or, flowing the
/// other way, the decode verdict a parked unicast sender waits on.
struct Handoff {
  bool is_verdict = false;
  net::ChannelState::Tx tx;  ///< the foreign frame (reception only)
  net::Packet packet;        ///< frame payload (reception only)
  /// Receiver id (reception) or transmitter id (verdict).
  net::NodeId node = 0;
  bool want_verdict = false;  ///< reception: answer with a verdict
  bool delivered = false;     ///< verdict payload
};

class ShardRuntime {
 public:
  /// Partitions `graph` for `cfg` (effective K from resolve_shard_count,
  /// clamped by the partitioner to the segment count) and assigns every
  /// vehicle in `initial` to a shard. Throws std::invalid_argument on
  /// configs outside the shard contract.
  ShardRuntime(const ScenarioConfig& cfg, const map::RoadGraph& graph,
               const map::SegmentIndex& segments,
               const std::vector<mobility::VehicleState>& initial);
  ~ShardRuntime();

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  int shards() const { return static_cast<int>(shards_.size()); }
  int threads() const { return threads_; }
  /// Owning shard of node `id`.
  int owner_of(net::NodeId id) const {
    return node_shard_[static_cast<std::size_t>(id)];
  }

  /// Shard `s`'s event loop, RNG manager (seeded with the scenario seed, so
  /// unsuffixed streams draw identically on every shard) and bridge.
  core::Simulator& simulator(int s);
  core::RngManager& rngs(int s);
  net::ShardBridge& bridge(int s);

  /// Runs the coordinator and every shard loop to `end`; `nets[s]` is the
  /// Network replica on shard s's loop.
  void run(core::Simulator& coordinator, const std::vector<net::Network*>& nets,
           core::SimTime end);

  /// Cross-shard receptions handed off so far (telemetry).
  std::uint64_t handoff_receptions() const;

 private:
  class Bridge;
  struct Shard;

  void distribute_mailboxes();
  void share_longest_frame(const std::vector<net::Network*>& nets);
  void run_shard_window(int shard, net::Network& net);

  std::vector<int> node_shard_;  ///< node id -> owning shard
  int threads_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// outbox_[src][dst]: written only by shard src's thread inside a window,
  /// moved into dst's inbox by the coordinator between windows (the barrier
  /// orders the two phases, so no lock is ever needed).
  std::vector<std::vector<std::vector<Handoff>>> outbox_;

  // Window state published by the coordinator before releasing the workers.
  core::SimTime window_end_{};
  bool final_window_ = false;
  bool stop_workers_ = false;
};

}  // namespace vanet::sim::sharded

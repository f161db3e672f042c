// Node stack: the per-event-loop half of a scenario.
//
// A Scenario owns the shared world — road graph, mobility, ferries, the
// density and reachability oracles, the fault plan — and one NodeStack per
// event loop. A stack is everything that simulates nodes on that loop: a
// Network replica (it mirrors every node's position off the shared
// MobilityManager), the hello service, one protocol instance per owned node,
// the traffic source, the collectors and the stack-local caches.
//
// The serial run is one stack on the coordinator loop that owns every node.
// A sharded run (src/sim/sharded/) builds one stack per region, each on its
// shard's loop with ".shardN"-suffixed RNG streams and a net::ShardBridge
// that decides ownership; the constructor below is the only place either
// path assembles a stack.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/lifetime_memo.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "map/segment_index.h"
#include "map/segment_snapshot.h"
#include "mobility/mobility_manager.h"
#include "net/hello.h"
#include "net/network.h"
#include "net/shard_bridge.h"
#include "routing/registry.h"
#include "sim/metrics.h"
#include "sim/traffic.h"

namespace vanet::sim {

struct ScenarioConfig;

/// The Scenario-owned state every stack is built against.
struct SharedWorld {
  const ScenarioConfig& cfg;
  routing::ProtocolDeps deps;  ///< road graph, density, ferries, knobs
  const map::SegmentIndex& segments;
  mobility::MobilityManager& mobility;
  std::size_t vehicle_count;
};

struct NodeStack {
  /// Builds the stack on `sim`, drawing from `rngs` with every stream name
  /// but "traffic" suffixed by `suffix`: the flow list must be the same pure
  /// function of the seed on every shard. With a `bridge` the stack owns
  /// only the nodes the bridge claims and schedules only their flows;
  /// without one it owns every node.
  NodeStack(const SharedWorld& world, core::Simulator& sim,
            core::RngManager& rngs, const std::string& suffix,
            net::ShardBridge* bridge);
  // Handlers capture the stack's address.
  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;

  /// Starts hello beacons, protocols and traffic for the owned nodes.
  void start();

  core::Simulator& sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::HelloService> hello;  ///< null for hello-less protocols
  std::vector<net::NodeId> owned;            ///< ascending node ids
  // Caches shared (non-owning) with this stack's protocols; per stack
  // because they are mutable and shards run concurrently.
  analysis::LifetimeMemo lifetime_memo;
  std::unique_ptr<map::SegmentSnapshot> seg_snapshot;
  routing::ProtocolEvents events;
  Metrics metrics;
  /// Indexed by node id; only owned slots are constructed.
  std::vector<std::unique_ptr<routing::RoutingProtocol>> protocols;
  std::unique_ptr<CbrTraffic> traffic;
};

}  // namespace vanet::sim

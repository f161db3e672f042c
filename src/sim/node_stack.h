// Node stack: the per-node half of a scenario.
//
// A Scenario owns the shared world — road graph, mobility, ferries, the
// density and reachability oracles, the fault plan — and one NodeStack. The
// stack is everything that simulates nodes: the Network (it mirrors every
// node's position off the shared MobilityManager), the hello service, one
// protocol instance per node, the traffic source, the collectors and the
// caches the protocols share.
#pragma once

#include <memory>
#include <vector>

#include "analysis/lifetime_memo.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "map/segment_index.h"
#include "map/segment_snapshot.h"
#include "mobility/mobility_manager.h"
#include "net/hello.h"
#include "net/network.h"
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
  /// Builds the stack on `sim`, drawing from the "net", "hello", "proto"
  /// and "traffic" streams of `rngs`.
  NodeStack(const SharedWorld& world, core::Simulator& sim,
            core::RngManager& rngs);
  // Handlers capture the stack's address.
  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;

  /// Starts hello beacons, protocols and traffic for every node.
  void start();

  core::Simulator& sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::HelloService> hello;  ///< null for hello-less protocols
  // Caches shared (non-owning) with this stack's protocols.
  analysis::LifetimeMemo lifetime_memo;
  std::unique_ptr<map::SegmentSnapshot> seg_snapshot;
  routing::ProtocolEvents events;
  Metrics metrics;
  /// Indexed by node id.
  std::vector<std::unique_ptr<routing::RoutingProtocol>> protocols;
  std::unique_ptr<CbrTraffic> traffic;
};

}  // namespace vanet::sim

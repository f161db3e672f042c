// Routing protocol framework.
//
// One RoutingProtocol instance runs per node. The framework owns mechanics
// shared by all protocols (packet construction, send/deliver plumbing,
// event accounting); concrete protocols implement policy only. The five
// categories match the paper's taxonomy (Fig. 1).
#pragma once

#include <functional>
#include <string_view>
#include <unordered_set>

#include "analysis/stats.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "net/hello.h"
#include "net/network.h"
#include "net/packet.h"
#include "routing/dup_cache.h"

namespace vanet::map {
class RoadGraph;
class SegmentDensityOracle;
class SegmentIndex;
class SegmentSnapshot;
}  // namespace vanet::map

namespace vanet::routing {

/// The paper's taxonomy (Fig. 1).
enum class Category {
  kConnectivity,
  kMobility,
  kInfrastructure,
  kGeographic,
  kProbability,
};

std::string_view to_string(Category c);

/// Run-wide protocol event accounting, shared by all nodes of a scenario.
struct ProtocolEvents {
  std::uint64_t discoveries_started = 0;
  std::uint64_t routes_established = 0;
  std::uint64_t route_breaks = 0;
  std::uint64_t preemptive_rebuilds = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_dropped_no_route = 0;
  std::uint64_t data_dropped_ttl = 0;
  // Discovery-path diagnostics (on-demand family).
  std::uint64_t rreq_at_target = 0;   ///< RREQ copies arriving at their target
  std::uint64_t rrep_sent = 0;        ///< replies originated by destinations
  std::uint64_t rrep_relayed = 0;     ///< replies forwarded by intermediates
  std::uint64_t rrep_stranded = 0;    ///< replies dropped: reverse route gone
  analysis::RunningStats predicted_route_lifetime;  ///< seconds, at establish
  analysis::RunningStats observed_route_lifetime;   ///< establish -> break
  // Link-quality family diagnostics (routing/linkquality/).
  std::uint64_t suppressed_rebroadcasts = 0;  ///< flood.suppression cancels
  /// |estimated link ETX - analytic ETX at the true distance|, sampled per
  /// live link at each beacon (etx protocol only).
  analysis::RunningStats etx_link_abs_error;
};

/// The node ids that are buses (`bus_count`); Bus routing hands packets to
/// them as message ferries. Vehicles recognise buses from their beacons in
/// reality; the shared set models that announcement bit.
using FerrySet = std::unordered_set<net::NodeId>;

/// The run's world: the road map and what derives from it, shared by every
/// node. The binder (the Scenario, or a test harness) fills it once per run
/// and owns it and everything it points to; no pointer is null.
struct World {
  const map::RoadGraph* map = nullptr;
  const map::SegmentIndex* segments = nullptr;  ///< built over *map
  /// Per-tick nearest-segment cache over *segments. Mutable shared state;
  /// a run is single-threaded, so it needs no synchronisation.
  map::SegmentSnapshot* seg_snapshot = nullptr;
  const map::SegmentDensityOracle* density = nullptr;  ///< per segment of *map
  const FerrySet* ferries = nullptr;
  /// Zone, grid and gvgrid follow road routes and road cells instead of
  /// straight lines and square cells. Decided once per run by the binder
  /// (sim::uses_route_geometry).
  bool route_geometry = false;
};

/// Everything an instance is bound to: its node, the run's event loop, radio,
/// counters and world. Pointers are non-owning and, but for `hello`, never
/// null: the binder owns them all and keeps them alive for the protocol's
/// lifetime (docs/ARCHITECTURE.md, "ProtocolContext").
struct ProtocolContext {
  core::Simulator* sim = nullptr;
  net::Network* net = nullptr;
  net::HelloService* hello = nullptr;  ///< null when the protocol opted out
  core::Rng* rng = nullptr;
  ProtocolEvents* events = nullptr;
  net::NodeId self = 0;
  const World* world = nullptr;
};

class RoutingProtocol {
 public:
  using DeliverCallback = std::function<void(const net::Packet&)>;

  virtual ~RoutingProtocol() = default;

  /// Wire the instance to its node. Must be called exactly once, before start().
  void bind(const ProtocolContext& ctx);

  /// Called once at scenario start (timers, proactive state).
  virtual void start() {}

  /// Every decoded frame addressed to this node (unicast to it or broadcast),
  /// except hello beacons which the dispatcher feeds to the HelloService.
  virtual void handle_frame(const net::Packet& p) = 0;

  /// MAC retries exhausted for a unicast frame this node sent.
  virtual void handle_unicast_failure(const net::Packet& p) { (void)p; }

  /// Application asks to send `bytes` of payload to `dst`.
  /// Returns false when the protocol rejects the packet outright.
  virtual bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                         std::size_t bytes) = 0;

  virtual std::string_view name() const = 0;
  virtual Category category() const = 0;
  /// Protocols that need neighbor awareness pay for hello beacons.
  virtual bool wants_hello() const { return false; }

  void set_deliver_callback(DeliverCallback cb) { deliver_cb_ = std::move(cb); }

 protected:
  net::NodeId self() const { return ctx_.self; }
  core::SimTime now() const { return ctx_.sim->now(); }
  net::Network& network() const { return *ctx_.net; }
  ProtocolEvents& events() const { return *ctx_.events; }
  /// Neighbor table of this node; precondition: wants_hello().
  const net::NeighborTable& neighbors() const;

  /// The run's world (see World).
  const map::RoadGraph& road_map() const { return *ctx_.world->map; }
  const map::SegmentIndex& segment_index() const {
    return *ctx_.world->segments;
  }
  const map::SegmentDensityOracle& density() const {
    return *ctx_.world->density;
  }
  const FerrySet& ferries() const { return *ctx_.world->ferries; }
  bool route_geometry() const { return ctx_.world->route_geometry; }
  /// Nearest segment to node `id` at its current position `pos`, through the
  /// run's snapshot; bit-identical to a direct index query. `pos` must be
  /// the node's current tick-aligned position (never an extrapolation).
  int snapped_segment(net::NodeId id, core::Vec2 pos) const;

  /// Fresh data packet originated here.
  net::Packet make_data(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                        std::size_t bytes) const;

  /// L2 sends. `broadcast` clears rx; `unicast` sets it.
  void broadcast(net::Packet p) const;
  void unicast(net::NodeId next_hop, net::Packet p) const;

  // The data plane every protocol shares, so that all of them deliver, spend
  // TTL and count hops by one rule (docs/PROTOCOLS.md, "Framework").

  /// Hand a data packet that reached its destination to the application, at
  /// most once per (origin, flow, seq): later copies are dropped here.
  void deliver(const net::Packet& p);
  /// Spend one unit of a data packet's TTL before it is relayed. False, and
  /// counted in data_dropped_ttl, when none is left: drop the packet.
  bool spend_ttl(net::Packet& p) const;
  /// Charge one data hop (hops, data_forwarded) to `p` just before it is
  /// sent: unicast, backbone or broadcast.
  void charge_hop(net::Packet& p) const;

  /// Uniform jitter in [0, max_ms] milliseconds — de-synchronises rebroadcasts.
  core::SimTime jitter(double max_ms) const;
  /// Forward the callable straight into the scheduler's inline storage (no
  /// std::function round-trip, so Packet-sized captures stay allocation-free).
  template <typename F>
  void schedule(core::SimTime delay, F&& fn) const {
    ctx_.sim->schedule(delay, std::forward<F>(fn));
  }

  ProtocolContext ctx_;

 private:
  DeliverCallback deliver_cb_;
  DupCache delivery_seen_;  ///< (origin, flow, seq) keys handed to deliver_cb_
};

}  // namespace vanet::routing

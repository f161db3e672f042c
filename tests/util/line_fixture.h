// Test fixture: N nodes on a line (optionally moving), one protocol instance
// per node, manually wired — the minimal harness for protocol unit tests.
// Every instance is bound to a whole world (road map, segment index and
// snapshot, density oracle, ferry set), decided the way sim::Scenario
// decides it.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "map/segment_index.h"
#include "map/segment_snapshot.h"
#include "mobility/mobility_manager.h"
#include "net/hello.h"
#include "net/network.h"
#include "routing/registry.h"
#include "sim/scenario.h"
#include "util/constant_velocity.h"

namespace vanet::testing {

struct LineFixtureOptions {
  int nodes = 5;
  double spacing = 80.0;      ///< distance between consecutive nodes, m
  double range = 100.0;       ///< unit-disk communication range
  double speed = 0.0;         ///< common +x speed (0 = static topology)
  double speed_step = 0.0;    ///< node i moves at speed + i * speed_step
  std::uint64_t seed = 42;
  routing::ProtocolDeps deps;
  /// The road map bound into every ProtocolContext. Unset: a straight road
  /// along the x axis from 0 to the farthest vehicle, in ~200 m segments.
  /// Vehicles are NOT constrained to it.
  std::shared_ptr<const map::RoadGraph> road_graph;
  /// Vehicles per segment of the road map (CAR reads it). Unset: none.
  std::shared_ptr<const map::SegmentDensityOracle> density;
  routing::FerrySet ferries;  ///< bus ids (Bus routing)
  sim::GeometryMode geometry = sim::GeometryMode::kLine;
  int rsus = 0;               ///< RSUs appended after the line, y = +30
  double rsu_spacing = 160.0;
  /// When non-empty, overrides rsus/rsu_spacing with explicit positions.
  std::vector<core::Vec2> rsu_positions;
};

/// Explicit vehicle placement for non-line topologies.
struct VehicleSpec {
  core::Vec2 pos;
  core::Vec2 vel;
};

class LineFixture {
 public:
  /// Arbitrary topology: one vehicle per spec (ids in order).
  LineFixture(const std::string& protocol, std::vector<VehicleSpec> vehicles,
              LineFixtureOptions opt = {})
      : opt_{opt}, rngs_{opt.seed} {
    opt_.nodes = static_cast<int>(vehicles.size());
    auto model = std::make_unique<mobility::ConstantVelocityModel>();
    for (const auto& v : vehicles) {
      const double speed = v.vel.norm();
      model->add_vehicle(v.pos, speed > 0.0 ? v.vel : core::Vec2{1.0, 0.0},
                         speed);
    }
    init(protocol, std::move(model));
  }

  LineFixture(const std::string& protocol, LineFixtureOptions opt = {})
      : opt_{opt}, rngs_{opt.seed} {
    auto model = std::make_unique<mobility::ConstantVelocityModel>();
    for (int i = 0; i < opt_.nodes; ++i) {
      model->add_vehicle({i * opt_.spacing, 0.0}, {1.0, 0.0},
                         opt_.speed + i * opt_.speed_step);
    }
    init(protocol, std::move(model));
  }

 private:
  void init(const std::string& protocol,
            std::unique_ptr<mobility::ConstantVelocityModel> model) {
    mgr = std::make_unique<mobility::MobilityManager>(sim, std::move(model),
                                                      rngs_.stream("m"));
    net = std::make_unique<net::Network>(
        sim, mgr.get(), std::make_unique<net::UnitDiskModel>(opt_.range),
        rngs_.stream("net"));
    for (int i = 0; i < opt_.nodes; ++i) {
      net->add_vehicle_node(static_cast<mobility::VehicleId>(i));
    }
    if (!opt_.rsu_positions.empty()) {
      for (const auto& pos : opt_.rsu_positions) net->add_rsu(pos);
      net->connect_backbone();
    } else {
      for (int k = 0; k < opt_.rsus; ++k) {
        net->add_rsu({(k + 0.5) * opt_.rsu_spacing, 30.0});
      }
      if (opt_.rsus > 0) net->connect_backbone();
    }

    for ([[maybe_unused]] net::NodeId id : net->node_ids()) {
      protocols.push_back(routing::ProtocolRegistry::make(protocol, opt_.deps));
    }
    if (protocols.front()->wants_hello()) {
      hello = std::make_unique<net::HelloService>(*net, rngs_.stream("hello"));
    }
    if (!opt_.road_graph) opt_.road_graph = road_under(mgr->vehicles());
    segment_index_ = std::make_unique<map::SegmentIndex>(*opt_.road_graph);
    seg_snapshot_ = std::make_unique<map::SegmentSnapshot>(*segment_index_);
    if (!opt_.density) {
      opt_.density = std::make_shared<map::SegmentDensityOracle>(
          opt_.road_graph->segment_count());
    }
    world_.map = opt_.road_graph.get();
    world_.segments = segment_index_.get();
    world_.seg_snapshot = seg_snapshot_.get();
    world_.density = opt_.density.get();
    world_.ferries = &opt_.ferries;
    world_.route_geometry =
        sim::uses_route_geometry(opt_.geometry, *opt_.road_graph);
    for (net::NodeId id : net->node_ids()) {
      routing::ProtocolContext ctx;
      ctx.sim = &sim;
      ctx.net = net.get();
      ctx.hello = hello.get();
      ctx.rng = &rngs_.stream("proto");
      ctx.events = &events;
      ctx.self = id;
      ctx.world = &world_;
      protocols[id]->bind(ctx);
      net->set_receive_handler(id, [this, id](const net::Packet& p) {
        if (p.kind == net::PacketKind::kHello) {
          if (hello) hello->on_frame(id, p);
          return;
        }
        protocols[id]->handle_frame(p);
      });
      net->set_unicast_fail_handler(id, [this, id](const net::Packet& p) {
        protocols[id]->handle_unicast_failure(p);
      });
      protocols[id]->set_deliver_callback(
          [this](const net::Packet& p) { delivered.push_back(p); });
    }
  }

  static std::shared_ptr<const map::RoadGraph> road_under(
      const std::vector<mobility::VehicleState>& vehicles) {
    double length = 1.0;
    for (const auto& v : vehicles) length = std::max(length, v.pos.x);
    const int nx = std::max(2, static_cast<int>(length / 200.0) + 1);
    return std::make_shared<map::RoadGraph>(nx, 1, length / (nx - 1));
  }

 public:
  /// Start services and run to absolute time `seconds`.
  void run_to(double seconds) {
    if (!started_) {
      started_ = true;
      mgr->start();
      if (hello) hello->start(net->node_ids());
      for (auto& p : protocols) p->start();
    }
    sim.run_until(core::SimTime::seconds(seconds));
  }

  /// Originate one data packet src -> dst at the current time.
  void send(net::NodeId src, net::NodeId dst, std::uint32_t seq = 0,
            std::uint32_t flow = 0) {
    protocols[src]->originate(dst, flow, seq, 512);
  }

  std::size_t delivered_count(std::uint32_t flow, std::uint32_t seq) const {
    std::size_t n = 0;
    for (const auto& p : delivered) {
      if (p.flow == flow && p.seq == seq) ++n;
    }
    return n;
  }

  core::Simulator sim;
  std::unique_ptr<mobility::MobilityManager> mgr;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::HelloService> hello;
  std::vector<std::unique_ptr<routing::RoutingProtocol>> protocols;
  routing::ProtocolEvents events;
  std::vector<net::Packet> delivered;

 private:
  LineFixtureOptions opt_;
  core::RngManager rngs_;
  std::unique_ptr<map::SegmentIndex> segment_index_;  ///< over opt_.road_graph
  std::unique_ptr<map::SegmentSnapshot> seg_snapshot_;
  routing::World world_;
  bool started_ = false;
};

}  // namespace vanet::testing

// Test fixture: N nodes on a line (optionally moving), one protocol instance
// per node, manually wired — the minimal harness for protocol unit tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "map/segment_index.h"
#include "mobility/mobility_manager.h"
#include "net/hello.h"
#include "net/network.h"
#include "routing/registry.h"
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
  /// When set, bound into every ProtocolContext (with a fixture-owned
  /// SegmentIndex) so the road-geometry protocols can exercise their
  /// GeometryMode::kRoute paths. Vehicles are NOT constrained to it.
  std::shared_ptr<const map::RoadGraph> road_graph;
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
    if (opt_.road_graph) {
      segment_index_ =
          std::make_unique<map::SegmentIndex>(*opt_.road_graph);
    }
    for (net::NodeId id : net->node_ids()) {
      routing::ProtocolContext ctx;
      ctx.sim = &sim;
      ctx.net = net.get();
      ctx.hello = hello.get();
      ctx.rng = &rngs_.stream("proto");
      ctx.events = &events;
      ctx.self = id;
      ctx.map = opt_.road_graph.get();
      ctx.segments = segment_index_.get();
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
  bool started_ = false;
};

}  // namespace vanet::testing

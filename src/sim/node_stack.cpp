#include "sim/node_stack.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/fading.h"
#include "sim/scenario.h"

namespace vanet::sim {

namespace {

std::unique_ptr<net::PropagationModel> make_propagation(
    const ScenarioConfig& cfg) {
  switch (cfg.phy) {
    case PhyModel::kShadowing:
      return std::make_unique<net::LogNormalShadowingModel>(cfg.signal);
    case PhyModel::kNakagami:
      // Thrown (not asserted): a bad sweep axis must become a structured
      // failure row in the experiment engine, not a process abort.
      if (cfg.nakagami_m < 1) {
        throw std::invalid_argument("phy.nakagami_m must be >= 1");
      }
      return std::make_unique<net::NakagamiFadingModel>(cfg.signal,
                                                        cfg.nakagami_m);
    case PhyModel::kUnitDisk:
      break;
  }
  return std::make_unique<net::UnitDiskModel>(cfg.comm_range_m);
}

/// Places cfg.rsu_count RSUs evenly over the deployment area and wires them
/// into the backbone.
void add_rsus(const ScenarioConfig& cfg, const map::RoadGraph& graph,
              net::Network& net) {
  if (cfg.mobility == MobilityKind::kHighway) {
    const double spacing = cfg.highway.length / cfg.rsu_count;
    for (int k = 0; k < cfg.rsu_count; ++k) {
      // On the median between the carriageways.
      net.add_rsu({(k + 0.5) * spacing, -cfg.highway.median_gap / 2.0});
    }
  } else {
    // Scenarios with a real map (graph mobility, or any imported file map —
    // including trace playback over one) cover the actual map extent, which
    // need not start at the origin; the synthetic urban kinds keep the
    // configured lattice dimensions.
    double x0 = 0.0, y0 = 0.0;
    double w = (cfg.manhattan.streets_x - 1) * cfg.manhattan.block;
    double h = (cfg.manhattan.streets_y - 1) * cfg.manhattan.block;
    if (cfg.mobility == MobilityKind::kGraph ||
        cfg.map.source == MapSource::kFile) {
      x0 = graph.bbox_min().x;
      y0 = graph.bbox_min().y;
      w = graph.bbox_max().x - x0;
      h = graph.bbox_max().y - y0;
    }
    const int per_side = std::max(
        1, static_cast<int>(std::lround(std::sqrt(cfg.rsu_count))));
    int placed = 0;
    for (int i = 0; i < per_side && placed < cfg.rsu_count; ++i) {
      for (int j = 0; j < per_side && placed < cfg.rsu_count; ++j) {
        const double x = per_side == 1 ? w / 2.0 : i * w / (per_side - 1);
        const double y = per_side == 1 ? h / 2.0 : j * h / (per_side - 1);
        net.add_rsu({x0 + x, y0 + y});
        ++placed;
      }
    }
  }
  net.connect_backbone();
}

}  // namespace

NodeStack::NodeStack(const SharedWorld& world, core::Simulator& loop,
                     core::RngManager& rngs)
    : sim{loop} {
  const ScenarioConfig& cfg = world.cfg;
  const map::RoadGraph& graph = *world.deps.road_graph;
  net = std::make_unique<net::Network>(
      sim, &world.mobility, make_propagation(cfg), rngs.stream("net"),
      cfg.net, core::Box{graph.bbox_min(), graph.bbox_max()});
  for (std::size_t v = 0; v < world.vehicle_count; ++v) {
    net->add_vehicle_node(static_cast<mobility::VehicleId>(v));
  }
  if (cfg.rsu_count > 0) add_rsus(cfg, graph, *net);

  seg_snapshot = std::make_unique<map::SegmentSnapshot>(world.segments);

  protocols.resize(net->node_count());
  for (auto& protocol : protocols) {
    protocol = routing::ProtocolRegistry::make(cfg.protocol, world.deps);
  }
  if (protocols.front()->wants_hello()) {
    hello = std::make_unique<net::HelloService>(*net, rngs.stream("hello"),
                                                cfg.hello);
  }
  for (const net::NodeId id : net->node_ids()) {
    routing::ProtocolContext ctx;
    ctx.sim = &sim;
    ctx.net = net.get();
    ctx.hello = hello.get();
    ctx.rng = &rngs.stream("proto");
    ctx.events = &events;
    ctx.self = id;
    // Every protocol sees the same shared road topology the vehicles drive
    // on (non-owning; the scenario outlives its stacks), and this stack's
    // caches.
    ctx.map = world.deps.road_graph.get();
    ctx.segments = &world.segments;
    ctx.lifetime_memo = &lifetime_memo;
    ctx.seg_snapshot = seg_snapshot.get();
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
    protocols[id]->set_deliver_callback([this](const net::Packet& p) {
      metrics.record_delivery(p.flow, p.seq, p.created_at, sim.now(), p.hops);
    });
  }

  std::vector<routing::RoutingProtocol*> raw;
  raw.reserve(protocols.size());
  for (auto& p : protocols) raw.push_back(p.get());
  traffic = std::make_unique<CbrTraffic>(sim, *net, std::move(raw),
                                         world.vehicle_count, metrics,
                                         rngs.stream("traffic"), cfg.traffic);
}

void NodeStack::start() {
  if (hello) hello->start(net->node_ids());
  for (const auto& protocol : protocols) protocol->start();
  traffic->start();
}

}  // namespace vanet::sim

// Registry of all implemented protocols, tagged with the paper's taxonomy.
//
// bench_fig1_taxonomy dumps this table; the scenario runner instantiates
// per-node protocol instances through it.
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "analysis/signal.h"
#include "map/road_graph.h"
#include "routing/infrastructure/bus.h"
#include "routing/linkquality/link_quality.h"
#include "routing/protocol.h"

namespace vanet::routing {

/// Shared dependencies some protocols need; scenario builders fill these in.
/// The road graph and density oracle come from the map subsystem (src/map/),
/// so protocols reason over the same topology the vehicles drive on.
struct ProtocolDeps {
  analysis::LogNormalParams signal;                          ///< REAR's model
  std::shared_ptr<const map::RoadGraph> road_graph;          ///< CAR
  std::shared_ptr<const map::SegmentDensityOracle> density;  ///< CAR
  std::shared_ptr<const FerrySet> ferries;                   ///< Bus
  int yan_tickets = 4;                                       ///< Yan TBP budget
  // Geometry backend of the road-geometry protocols zone, grid and gvgrid
  // (kLine = legacy plane; kRoute additionally needs the map bound via
  // ProtocolContext).
  GeometryMode geometry = GeometryMode::kLine;
  // Link-quality family (routing/linkquality/): the estimator knobs shared
  // by `etx` and the flooding suppression mode, and the suppression mode
  // itself (`flood.suppression`, applied to flooding + biswas).
  EtxConfig etx;
  FloodSuppression flood_suppression = FloodSuppression::kNone;
};

struct ProtocolInfo {
  std::string_view name;
  Category category;
  std::string_view reference;    ///< paper citation tag, e.g. "[13] PBR"
  std::string_view metric;       ///< the routing metric employed
  std::string_view control;      ///< control packets used
  std::function<std::unique_ptr<RoutingProtocol>(const ProtocolDeps&)> make;
};

class ProtocolRegistry {
 public:
  static const std::vector<ProtocolInfo>& all();
  /// nullptr when unknown.
  static const ProtocolInfo* find(std::string_view name);
  /// Throws std::invalid_argument for unknown names or missing dependencies.
  static std::unique_ptr<RoutingProtocol> make(std::string_view name,
                                               const ProtocolDeps& deps);
};

}  // namespace vanet::routing

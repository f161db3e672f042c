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
#include "routing/linkquality/link_quality.h"
#include "routing/protocol.h"

namespace vanet::routing {

/// The values some protocols read from the run's config. The run's shared
/// objects (road graph, segment index and snapshot, density oracle, ferry
/// set) are not here: they reach every instance through the ProtocolContext
/// passed to bind().
struct ProtocolDeps {
  analysis::LogNormalParams signal;  ///< REAR's model
  int yan_tickets = 4;               ///< Yan TBP budget
  /// `flood.suppression`, applied to flooding + biswas.
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
  /// Throws std::invalid_argument for unknown names.
  static std::unique_ptr<RoutingProtocol> make(std::string_view name,
                                               const ProtocolDeps& deps);
};

}  // namespace vanet::routing

#include "routing/registry.h"

#include <stdexcept>
#include <string>

#include "routing/connectivity/aodv.h"
#include "routing/connectivity/biswas.h"
#include "routing/connectivity/dsr.h"
#include "routing/connectivity/flooding.h"
#include "routing/geographic/greedy.h"
#include "routing/geographic/grid_gateway.h"
#include "routing/geographic/rover.h"
#include "routing/geographic/zone.h"
#include "routing/infrastructure/bus.h"
#include "routing/infrastructure/drr.h"
#include "routing/linkquality/etx.h"
#include "routing/mobility/abedi.h"
#include "routing/mobility/pbr.h"
#include "routing/mobility/taleb.h"
#include "routing/mobility/wedde.h"
#include "routing/probability/car.h"
#include "routing/probability/gvgrid.h"
#include "routing/probability/niude.h"
#include "routing/probability/rear.h"
#include "routing/probability/yan.h"

namespace vanet::routing {

namespace {

std::vector<ProtocolInfo> build_registry() {
  std::vector<ProtocolInfo> r;
  // --- connectivity-based (Sec. III) ---------------------------------------
  r.push_back({"flooding", Category::kConnectivity, "Sec. III-A",
               "none (blind rebroadcast)", "data only",
               [](const ProtocolDeps& d) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<FloodingProtocol>(d.flood_suppression);
               }});
  r.push_back({"biswas", Category::kConnectivity, "[9] Biswas",
               "implicit acknowledgement", "data + implicit ack",
               [](const ProtocolDeps& d) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<BiswasProtocol>(d.flood_suppression);
               }});
  r.push_back({"aodv", Category::kConnectivity, "[6] AODV",
               "hop count", "RREQ/RREP/RERR",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<AodvProtocol>();
               }});
  r.push_back({"dsr", Category::kConnectivity, "[7] DSR",
               "hop count (source routes)", "RREQ/RREP/RERR",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<DsrProtocol>();
               }});
  r.push_back({"dsdv", Category::kConnectivity, "[8] DSDV",
               "sequenced distance vector", "hello piggyback",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<EtxProtocol>(LinkCost::kUnit);
               }});
  r.push_back({"etx", Category::kConnectivity, "[31] De Couto (ETX)",
               "expected transmission count (Dijkstra)", "hello piggyback",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<EtxProtocol>(LinkCost::kEtx);
               }});
  // --- mobility-based (Sec. IV) --------------------------------------------
  r.push_back({"pbr", Category::kMobility, "[13] PBR",
               "predicted link lifetime (Eqns. 1-4)", "RREQ/RREP/RERR + hello",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<PbrProtocol>();
               }});
  r.push_back({"taleb", Category::kMobility, "[14] Taleb",
               "velocity-vector groups", "RREQ/RREP/RERR + hello",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<TalebProtocol>();
               }});
  r.push_back({"abedi", Category::kMobility, "[11] Abedi",
               "direction first, then position", "RREQ/RREP/RERR + hello",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<AbediProtocol>();
               }});
  r.push_back({"wedde", Category::kMobility, "[15] Wedde",
               "road-condition rating threshold", "RREQ/RREP/RERR + hello",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<WeddeProtocol>();
               }});
  // --- infrastructure-based (Sec. V) ----------------------------------------
  r.push_back({"drr", Category::kInfrastructure, "[17] DRR",
               "greedy + RSU virtual equivalent node", "data + hello + backbone",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<DrrProtocol>();
               }});
  r.push_back({"bus", Category::kInfrastructure, "[19] Bus",
               "greedy + bus message ferries", "data + hello",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<BusProtocol>();
               }});
  // --- geographic-location-based (Sec. VI) ----------------------------------
  r.push_back({"greedy", Category::kGeographic, "[23,24] Greedy",
               "geographic progress x link lifetime", "data + hello",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<GreedyProtocol>();
               }});
  r.push_back({"zone", Category::kGeographic, "[22] Zone",
               "corridor-restricted flooding", "data only",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<ZoneProtocol>();
               }});
  r.push_back({"grid", Category::kGeographic, "[20] CarNet / [26] LORA-DCBF",
               "grid cells with gateway election", "data + hello",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<GridGatewayProtocol>();
               }});
  r.push_back({"rover", Category::kGeographic, "[25] ROVER",
               "zone-confined AODV discovery", "RREQ/RREP/RERR (in-zone)",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<RoverProtocol>();
               }});
  // --- probability-model-based (Sec. VII) ------------------------------------
  r.push_back({"rear", Category::kProbability, "[30] REAR",
               "receipt probability (signal model)", "data + hello",
               [](const ProtocolDeps& d) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<RearProtocol>(d.signal);
               }});
  r.push_back({"gvgrid", Category::kProbability, "[28] GVGrid",
               "P(link survives horizon), normal speeds", "RREQ/RREP + hello",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<GvGridProtocol>();
               }});
  r.push_back({"niude", Category::kProbability, "[16] NiuDe (DeReQ)",
               "availability x density, delay bound", "RREQ/RREP + hello",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<NiuDeProtocol>();
               }});
  r.push_back({"car", Category::kProbability, "[29] CAR",
               "segment connectivity probability", "data + hello + statistics",
               [](const ProtocolDeps&) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<CarProtocol>();
               }});
  r.push_back({"yan", Category::kProbability, "[27] Yan (TBP)",
               "expected link duration, ticket probing", "ticket probes + hello",
               [](const ProtocolDeps& d) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<YanProtocol>(d.yan_tickets);
               }});
  r.push_back({"yan-ss", Category::kProbability, "[27] Yan (TBP-SS)",
               "mean link duration with stability floor", "ticket probes + hello",
               [](const ProtocolDeps& d) -> std::unique_ptr<RoutingProtocol> {
                 return std::make_unique<YanStabilityProtocol>(d.yan_tickets);
               }});
  return r;
}

}  // namespace

const std::vector<ProtocolInfo>& ProtocolRegistry::all() {
  static const std::vector<ProtocolInfo> kRegistry = build_registry();
  return kRegistry;
}

const ProtocolInfo* ProtocolRegistry::find(std::string_view name) {
  for (const auto& info : all()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

std::unique_ptr<RoutingProtocol> ProtocolRegistry::make(
    std::string_view name, const ProtocolDeps& deps) {
  const ProtocolInfo* info = find(name);
  if (info == nullptr) {
    throw std::invalid_argument("unknown protocol: " + std::string(name));
  }
  return info->make(deps);
}

}  // namespace vanet::routing

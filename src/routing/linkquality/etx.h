// Proactive distance-vector unicast routing on one engine, two link costs.
//
// Hello-driven: the EtxAgent measures per-link delivery ratios from the
// sequence-numbered beacons, piggybacks its destination-sequenced distance
// vector on the same beacons, and runs Dijkstra over the weighted neighbor
// topology. The protocol picks the link cost:
//
// - `etx` (De Couto et al.): each link costs its expected transmission
//   count, so data follows the cheapest ETX path instead of the fewest hops.
//   Under a lossy channel (phy.model=shadowing|nakagami) that trades long
//   marginal links for short reliable ones, which is the whole point: hop
//   count picks links that exist but barely deliver.
// - `dsdv` [8] (Sec. III-B): each live link costs 1, so routes are min-hop.
//   Everything else — advert transport, sequencing, kills, liveness — is
//   the same as `etx`, so the two differ only in the metric (the comparison
//   De Couto et al. made against min-hop DSDV). The periodic table dumps
//   the survey charges proactive protocols for ride on the hellos here, so
//   they cost hello bytes rather than control frames.
#pragma once

#include <memory>

#include "routing/linkquality/etx_agent.h"
#include "routing/protocol.h"

namespace vanet::routing {

class EtxProtocol final : public RoutingProtocol {
 public:
  explicit EtxProtocol(LinkCost cost) : cost_{cost} {}

  void start() override;
  bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                 std::size_t bytes) override;
  void handle_frame(const net::Packet& p) override;
  void handle_unicast_failure(const net::Packet& p) override;

  std::string_view name() const override {
    return cost_ == LinkCost::kEtx ? "etx" : "dsdv";
  }
  Category category() const override { return Category::kConnectivity; }
  bool wants_hello() const override { return true; }

  /// Estimator introspection for tests (churn / dangling-edge assertions).
  const EtxAgent& agent() const { return *agent_; }

 private:
  void sample_estimator_error();

  LinkCost cost_;
  std::unique_ptr<EtxAgent> agent_;
};

}  // namespace vanet::routing

// Link-quality-aware unicast routing on the ETX metric (De Couto et al.).
//
// Proactive, hello-driven: the EtxAgent measures per-link delivery ratios
// from the sequence-numbered beacons, piggybacks its distance vector on the
// same beacons, and runs Dijkstra over the ETX-weighted neighbor topology.
// Data packets follow the cheapest expected-transmission-count path instead
// of the fewest hops — under a lossy channel (phy.model=shadowing|nakagami)
// that trades long marginal links for short reliable ones, which is the
// whole point: hop count picks links that exist but barely deliver.
#pragma once

#include <memory>

#include "routing/linkquality/etx_agent.h"
#include "routing/protocol.h"

namespace vanet::routing {

class EtxProtocol final : public RoutingProtocol {
 public:
  void start() override;
  bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                 std::size_t bytes) override;
  void handle_frame(const net::Packet& p) override;
  void handle_unicast_failure(const net::Packet& p) override;

  std::string_view name() const override { return "etx"; }
  Category category() const override { return Category::kConnectivity; }
  bool wants_hello() const override { return true; }

  /// Estimator introspection for tests (churn / dangling-edge assertions).
  const EtxAgent& agent() const { return *agent_; }

 private:
  void sample_estimator_error();

  std::unique_ptr<EtxAgent> agent_;
};

}  // namespace vanet::routing

// Constant-bit-rate application traffic over randomly chosen vehicle pairs.
//
// Endpoint selection draws from its own RNG stream, so two runs with the same
// seed but different protocols exercise identical flows — the prerequisite
// for a fair protocol comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/simulator.h"
#include "net/network.h"
#include "routing/protocol.h"
#include "sim/metrics.h"

namespace vanet::sim {

struct TrafficConfig {
  int flows = 10;
  double rate_pps = 2.0;            ///< packets per second per flow
  std::size_t payload_bytes = 512;
  double start_s = 5.0;             ///< warm-up before first packet
  double stop_s = 55.0;
  double min_pair_distance_m = 400; ///< endpoints at least this far apart
};

class CbrTraffic {
 public:
  /// `protocols[i]` is node i's protocol instance; only vehicle nodes
  /// (id < vehicle_count) are eligible flow endpoints.
  CbrTraffic(core::Simulator& sim, net::Network& net,
             std::vector<routing::RoutingProtocol*> protocols,
             std::size_t vehicle_count, Metrics& metrics, core::Rng& rng,
             TrafficConfig cfg);

  /// Choose endpoints and schedule all packet transmissions.
  void start();

  struct Flow {
    net::NodeId src = 0;
    net::NodeId dst = 0;
    // Recurring-timer state: next send time (replaying the historical float
    // accumulation), next application sequence, and sends remaining.
    double next_t = 0.0;
    std::uint32_t app_seq = 0;
    std::uint32_t packets_left = 0;
  };
  const std::vector<Flow>& flows() const { return flows_; }

 private:
  void pick_flows();
  void send_packet(std::size_t flow_idx, std::uint32_t seq);
  /// One CBR send; returns the next send time (negative when done).
  core::SimTime fire_flow(std::size_t flow_idx);

  core::Simulator& sim_;
  net::Network& net_;
  std::vector<routing::RoutingProtocol*> protocols_;
  std::size_t vehicle_count_;
  Metrics& metrics_;
  core::Rng& rng_;
  TrafficConfig cfg_;
  std::vector<Flow> flows_;
};

}  // namespace vanet::sim

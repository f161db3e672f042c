#include "sim/traffic.h"

#include "core/assert.h"

namespace vanet::sim {

CbrTraffic::CbrTraffic(core::Simulator& sim, net::Network& net,
                       std::vector<routing::RoutingProtocol*> protocols,
                       std::size_t vehicle_count, Metrics& metrics,
                       core::Rng& rng, TrafficConfig cfg)
    : sim_{sim},
      net_{net},
      protocols_{std::move(protocols)},
      vehicle_count_{vehicle_count},
      metrics_{metrics},
      rng_{rng},
      cfg_{cfg} {
  VANET_ASSERT(vehicle_count_ >= 2);
}

void CbrTraffic::pick_flows() {
  const auto max_id = static_cast<std::int64_t>(vehicle_count_ - 1);
  for (int f = 0; f < cfg_.flows; ++f) {
    Flow flow;
    bool ok = false;
    for (int attempt = 0; attempt < 64 && !ok; ++attempt) {
      flow.src = static_cast<net::NodeId>(rng_.uniform_int(0, max_id));
      flow.dst = static_cast<net::NodeId>(rng_.uniform_int(0, max_id));
      if (flow.src == flow.dst) continue;
      const double d =
          (net_.position(flow.src) - net_.position(flow.dst)).norm();
      ok = d >= cfg_.min_pair_distance_m;
    }
    if (!ok) {
      // Fall back to any distinct pair (dense maps may lack far pairs).
      do {
        flow.src = static_cast<net::NodeId>(rng_.uniform_int(0, max_id));
        flow.dst = static_cast<net::NodeId>(rng_.uniform_int(0, max_id));
      } while (flow.src == flow.dst);
    }
    flows_.push_back(flow);
  }
}

void CbrTraffic::start() {
  pick_flows();
  const double interval = 1.0 / cfg_.rate_pps;
  // One recurring pooled event per flow instead of pre-scheduling every
  // packet. Determinism: the historical implementation scheduled all packets
  // upfront (flow-major), so each packet's equal-time FIFO rank came from
  // that bulk pass. Reserving the same contiguous sequence block here and
  // letting each flow consume its sub-block per firing reproduces those
  // ranks — and the per-packet times replay the same float accumulation
  // (`t += interval`) the bulk loop used — so dispatch order is unchanged
  // bit-for-bit while the heap holds one entry per flow.
  std::uint32_t total = 0;
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    // Stagger flows across one interval to avoid synchronized bursts.
    const double offset = rng_.uniform(0.0, interval);
    Flow& flow = flows_[f];
    flow.next_t = cfg_.start_s + offset;
    flow.packets_left = 0;
    for (double t = flow.next_t; t < cfg_.stop_s; t += interval) {
      ++flow.packets_left;
    }
    total += flow.packets_left;
  }
  std::uint32_t seq_base = sim_.reserve_seq_block(total);
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    Flow& flow = flows_[f];
    if (flow.packets_left == 0) continue;
    sim_.schedule_recurring_at(
        core::SimTime::seconds(flow.next_t), seq_base, flow.packets_left,
        [this, f](core::SimTime) { return fire_flow(f); });
    seq_base += flow.packets_left;
  }
}

core::SimTime CbrTraffic::fire_flow(std::size_t flow_idx) {
  Flow& flow = flows_[flow_idx];
  send_packet(flow_idx, flow.app_seq++);
  flow.next_t += 1.0 / cfg_.rate_pps;
  if (--flow.packets_left == 0) return core::SimTime::micros(-1);
  return core::SimTime::seconds(flow.next_t);
}

void CbrTraffic::send_packet(std::size_t flow_idx, std::uint32_t seq) {
  const Flow& flow = flows_[flow_idx];
  metrics_.record_originated(sim_.now());
  protocols_[flow.src]->originate(flow.dst, static_cast<std::uint32_t>(flow_idx),
                                  seq, cfg_.payload_bytes);
}

}  // namespace vanet::sim

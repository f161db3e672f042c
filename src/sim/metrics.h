// End-to-end metrics collection for scenario runs.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/stats.h"
#include "core/sim_time.h"

namespace vanet::sim {

/// Counts originated/delivered application packets and accumulates delay and
/// hop statistics. Duplicate deliveries of the same (flow, seq) are ignored.
class Metrics {
 public:
  /// Per-flow accumulators (delays in milliseconds).
  struct FlowStats {
    std::uint64_t originated = 0;
    std::uint64_t delivered = 0;
    analysis::RunningStats delay_ms;
    double pdr() const {
      return originated > 0
                 ? static_cast<double>(delivered) / static_cast<double>(originated)
                 : 0.0;
    }
  };

  void record_originated(std::uint32_t flow = 0,
                         core::SimTime now = core::SimTime::zero());

  /// Returns true when this was the first delivery of (flow, seq).
  bool record_delivery(std::uint32_t flow, std::uint32_t seq,
                       core::SimTime sent_at, core::SimTime now, int hops);

  /// When enabled (scenario does so iff fault injection is on), every
  /// origination time and every first delivery's *send* time are retained so
  /// the scenario can classify traffic against the completed fault timeline
  /// after the run (sim::FaultPlan::fault_active_at). Classifying both sides
  /// by the same timestamp with the same finished timeline keeps the split
  /// consistent even for packets sent at the instant of a transition.
  void set_fault_tracking(bool on) { fault_tracking_ = on; }
  const std::vector<core::SimTime>& origination_times() const {
    return origination_times_;
  }
  const std::vector<core::SimTime>& first_delivery_sent_times() const {
    return first_delivery_sent_times_;
  }

  /// Stats for one flow (zero-initialised if never seen).
  const FlowStats& flow_stats(std::uint32_t flow) const;

  std::uint64_t originated() const { return originated_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t duplicate_deliveries() const { return duplicates_; }

  /// Packet delivery ratio in [0, 1]; 0 when nothing was originated.
  double pdr() const;

  const analysis::RunningStats& delay_ms() const { return delay_ms_; }
  const analysis::RunningStats& hops() const { return hops_; }

 private:
  std::uint64_t originated_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_ = 0;
  analysis::RunningStats delay_ms_;
  analysis::RunningStats hops_;
  std::unordered_set<std::uint64_t> seen_;
  std::unordered_map<std::uint32_t, FlowStats> flows_;
  bool fault_tracking_ = false;
  std::vector<core::SimTime> origination_times_;
  std::vector<core::SimTime> first_delivery_sent_times_;
};

}  // namespace vanet::sim

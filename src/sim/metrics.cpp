#include "sim/metrics.h"

#include <vector>

namespace vanet::sim {

void Metrics::record_originated(std::uint32_t flow, core::SimTime now) {
  ++originated_;
  ++flows_[flow].originated;
  if (fault_tracking_) origination_times_.push_back(now);
}

bool Metrics::record_delivery(std::uint32_t flow, std::uint32_t seq,
                              core::SimTime sent_at, core::SimTime now,
                              int hops) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(flow) << 32) | static_cast<std::uint64_t>(seq);
  if (!seen_.insert(key).second) {
    ++duplicates_;
    return false;
  }
  ++delivered_;
  if (fault_tracking_) first_delivery_sent_times_.push_back(sent_at);
  const double delay = (now - sent_at).as_millis();
  delay_ms_.add(delay);
  hops_.add(static_cast<double>(hops));
  FlowStats& fs = flows_[flow];
  ++fs.delivered;
  fs.delay_ms.add(delay);
  return true;
}

const Metrics::FlowStats& Metrics::flow_stats(std::uint32_t flow) const {
  static const FlowStats kEmpty;
  auto it = flows_.find(flow);
  return it != flows_.end() ? it->second : kEmpty;
}

double Metrics::pdr() const {
  if (originated_ == 0) return 0.0;
  return static_cast<double>(delivered_) / static_cast<double>(originated_);
}

}  // namespace vanet::sim

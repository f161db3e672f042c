#include "sim/metrics.h"

#include <vector>

namespace vanet::sim {

void Metrics::record_originated(core::SimTime now) {
  ++originated_;
  if (fault_tracking_) origination_times_.push_back(now);
}

bool Metrics::record_delivery(std::uint32_t flow, std::uint32_t seq,
                              core::SimTime sent_at, core::SimTime now,
                              int hops) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(flow) << 32) | static_cast<std::uint64_t>(seq);
  if (!seen_.insert(key).second) return false;
  ++delivered_;
  if (fault_tracking_) first_delivery_sent_times_.push_back(sent_at);
  delay_ms_.add((now - sent_at).as_millis());
  hops_.add(static_cast<double>(hops));
  return true;
}

double Metrics::pdr() const {
  if (originated_ == 0) return 0.0;
  return static_cast<double>(delivered_) / static_cast<double>(originated_);
}

}  // namespace vanet::sim

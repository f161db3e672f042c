#include "routing/mobility/wedde.h"

#include <algorithm>

namespace vanet::routing {

double WeddeProtocol::local_rating() const {
  const auto& nbrs = neighbors().snapshot();
  // Density term: saturating in the number of usable relays.
  const double density =
      std::min(1.0, static_cast<double>(nbrs.size()) / kHealthyNeighbors);
  if (nbrs.empty()) return 0.0;
  // Speed / congestion terms: flowing traffic keeps mean speed near free
  // flow; congestion is the fraction of near-stationary vehicles.
  double speed_sum = 0.0;
  int slow = 0;
  for (const auto& n : nbrs) {
    const double v = n.vel.norm();
    speed_sum += v;
    if (v < 0.25 * kHealthySpeed) ++slow;
  }
  const double mean_speed = speed_sum / static_cast<double>(nbrs.size());
  const double flow = std::min(1.0, mean_speed / kHealthySpeed);
  const double quality =
      1.0 - static_cast<double>(slow) / static_cast<double>(nbrs.size());
  // Interdependency: density provides relays, flow*quality keeps them usable.
  return density * (0.5 * flow + 0.5 * quality);
}

LinkEval WeddeProtocol::evaluate_link(const RreqHeader& h) const {
  (void)h;
  LinkEval ev;
  const double rating = local_rating();
  ev.usable = rating >= kAdmissionThreshold;
  // Better-rated areas are cheaper to route through.
  ev.cost = 1.0 / std::max(rating, 0.05);
  return ev;
}

bool WeddeProtocol::path_better(const PathMetric& a, const PathMetric& b) const {
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.hops < b.hops;
}

}  // namespace vanet::routing

#include "routing/probability/niude.h"

#include <algorithm>
#include <cmath>

namespace vanet::routing {

LinkEval NiuDeProtocol::evaluate_link(const RreqHeader& h) const {
  LinkEval ev;
  const core::Vec2 here = network().position(self());
  const core::Vec2 axis = here - h.prev_pos;
  const double d0 = axis.norm();
  const double r = network().nominal_range();
  if (d0 >= r * 0.999 || d0 <= 0.0) {
    ev.reliability = 1e-6;
    ev.cost = -std::log(1e-6);
    return ev;
  }
  const core::Vec2 unit = axis / d0;
  const double mu = (network().velocity(self()) - h.prev_vel).dot(unit);
  const analysis::LinkLifetimeDistribution dist{r, d0, mu, kSpeedSigma};
  // Availability over the QoS horizon...
  double reliability = dist.survival(kQosHorizonS);
  // ...discounted where traffic density is too thin for a repair to exist
  // ("considers not only the link duration but also the traffic density").
  const double density_factor = std::min(
      1.0, static_cast<double>(neighbors().size()) / kHealthyNeighbors);
  reliability *= 0.5 + 0.5 * density_factor;
  reliability = std::clamp(reliability, 1e-6, 1.0);
  ev.reliability = reliability;
  ev.cost = -std::log(reliability);
  ev.lifetime = dist.expected_lifetime(/*horizon=*/600.0);
  return ev;
}

bool NiuDeProtocol::path_better(const PathMetric& a, const PathMetric& b) const {
  // Delay compliance first (hop bound as the delay proxy), then reliability.
  const bool a_ok = a.hops <= kDelayHopBound;
  const bool b_ok = b.hops <= kDelayHopBound;
  if (a_ok != b_ok) return a_ok;
  if (a.reliability != b.reliability) return a.reliability > b.reliability;
  return a.hops < b.hops;
}

}  // namespace vanet::routing

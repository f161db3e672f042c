#include "routing/probability/gvgrid.h"

#include <algorithm>
#include <cmath>

namespace vanet::routing {

bool GvGridProtocol::inside_route_corridor(const RreqHeader& h) const {
  if (!route_geometry()) return true;  // line geometry: unconfined
  // The origin stamped its position (and its road segment — pure function of
  // the position, so the stamp equals a fresh query) into the RREQ; the
  // target's position comes from the same idealized location service the
  // geographic family uses, and its segment from the scenario's per-tick
  // snapshot when one is bound.
  const core::Vec2 target_pos = network().position(h.target);
  const map::RouteCorridor& corridor = corridors_.between(
      road_map(), CorridorCache::pair_key(h.rreq_origin, h.target),
      h.origin_pos, target_pos, h.origin_seg,
      snapped_segment(h.target, target_pos));
  if (!corridor.route_found()) return true;  // disconnected: no confinement
  return corridor.contains(network().position(self()), kCorridorHalfWidth);
}

LinkEval GvGridProtocol::evaluate_link(const RreqHeader& h) const {
  LinkEval ev;
  if (!inside_route_corridor(h)) {
    // Off the road route toward the target: do not take part in discovery.
    ev.usable = false;
    return ev;
  }
  const core::Vec2 here = network().position(self());
  const core::Vec2 axis = here - h.prev_pos;
  const double d0 = axis.norm();
  const double r = network().nominal_range();
  if (d0 >= r * 0.999 || d0 <= 0.0) {
    // Marginal link: admit it, but at the floor reliability so any
    // alternative path wins — pruning it outright would partition sparse
    // topologies where the marginal hop is the only hop.
    ev.reliability = 1e-6;
    ev.cost = -std::log(1e-6);
    return ev;
  }
  // Relative separation speed along the link axis; positive = drifting apart.
  const core::Vec2 unit = axis / d0;
  const double mu = (network().velocity(self()) - h.prev_vel).dot(unit);
  const analysis::LinkLifetimeDistribution dist{r, d0, mu, kSpeedSigma};
  const double reliability =
      std::clamp(dist.survival(kReliabilityHorizonS), 1e-6, 1.0);
  ev.reliability = reliability;
  ev.cost = -std::log(reliability);
  ev.lifetime = dist.expected_lifetime(/*horizon=*/600.0);
  return ev;
}

bool GvGridProtocol::path_better(const PathMetric& a, const PathMetric& b) const {
  const bool a_ok = a.hops <= kMaxHops;
  const bool b_ok = b.hops <= kMaxHops;
  if (a_ok != b_ok) return a_ok;  // meet the delay (hop) bound first
  if (a.reliability != b.reliability) return a.reliability > b.reliability;
  return a.hops < b.hops;
}

}  // namespace vanet::routing

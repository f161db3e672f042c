// GVGrid (Sun et al. [28], Sec. VII-B).
//
// Assumes vehicle speeds are normally distributed and scores every link with
// the probability that it survives a reliability horizon delta:
// P(T > delta) from the stochastic lifetime model (LinkLifetimeDistribution).
// The route with the highest product of link reliabilities that also meets a
// hop (delay) bound is selected.
//
// GVGrid's defining trait in the source paper is that candidate routes follow
// the road grid between source and destination. Route geometry
// (ProtocolContext::route_geometry, `geometry=route` on an imported map)
// restores that: RREQ links are admitted only when the evaluating node lies
// within a corridor around the shortest road route from the request origin
// to the target (map::RouteCorridor), so discovery floods along streets that
// lead there instead of the whole connected component. On lattice maps the
// unconfined flood already explores road-shaped paths, and disconnected
// endpoints leave discovery unconfined too.
#pragma once

#include "analysis/lifetime_distribution.h"
#include "routing/corridor_cache.h"
#include "routing/on_demand.h"

namespace vanet::routing {

class GvGridProtocol final : public OnDemandBase {
 public:
  std::string_view name() const override { return "gvgrid"; }
  Category category() const override { return Category::kProbability; }
  bool wants_hello() const override { return true; }

 protected:
  LinkEval evaluate_link(const RreqHeader& h) const override;
  bool path_better(const PathMetric& a, const PathMetric& b) const override;
  bool reply_immediately() const override { return false; }
  bool uses_road_corridor() const override { return route_geometry(); }

 private:
  /// Route geometry: is this node inside the road corridor origin→target?
  bool inside_route_corridor(const RreqHeader& h) const;

  mutable CorridorCache corridors_;  ///< keyed by (rreq_origin, target)

  static constexpr double kReliabilityHorizonS = 5.0;
  static constexpr double kSpeedSigma = 2.0;  ///< m/s, relative speed
  static constexpr int kMaxHops = 12;         ///< the delay (hop) bound
  static constexpr double kCorridorHalfWidth = 400.0;  ///< m
};

}  // namespace vanet::routing

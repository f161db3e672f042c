// GVGrid (Sun et al. [28], Sec. VII-B).
//
// Assumes vehicle speeds are normally distributed and scores every link with
// the probability that it survives a reliability horizon delta:
// P(T > delta) from the stochastic lifetime model (LinkLifetimeDistribution).
// The route with the highest product of link reliabilities that also meets a
// hop (delay) bound is selected.
//
// GVGrid's defining trait in the source paper is that candidate routes follow
// the road grid between source and destination. GeometryMode::kRoute
// (`geometry=route`) restores that on imported maps: RREQ links are
// admitted only when the evaluating node lies within a corridor around the
// shortest road route from the request origin to the target
// (map::RouteCorridor), so discovery floods along streets that lead there
// instead of the whole connected component. On lattice maps — where the
// legacy unconfined flood already explores road-shaped paths — kRoute
// reduces to the kLine behavior, as does an unbound map or disconnected
// endpoints.
#pragma once

#include "analysis/lifetime_distribution.h"
#include "routing/corridor_cache.h"
#include "routing/on_demand.h"

namespace vanet::routing {

class GvGridProtocol final : public OnDemandBase {
 public:
  explicit GvGridProtocol(GeometryMode geometry = GeometryMode::kLine,
                          double reliability_horizon_s = 5.0,
                          double speed_sigma = 2.0, int max_hops = 12,
                          double corridor_half_width = 400.0)
      : horizon_{reliability_horizon_s},
        sigma_{speed_sigma},
        max_hops_{max_hops},
        geometry_{geometry},
        corridor_half_width_{corridor_half_width} {}

  std::string_view name() const override { return "gvgrid"; }
  Category category() const override { return Category::kProbability; }
  bool wants_hello() const override { return true; }


 protected:
  LinkEval evaluate_link(const RreqHeader& h) const override;
  bool path_better(const PathMetric& a, const PathMetric& b) const override;
  bool reply_immediately() const override { return false; }
  bool uses_road_corridor() const override {
    return geometry_ == GeometryMode::kRoute && has_map() &&
           !road_map().is_grid();
  }

 private:
  /// kRoute: is this node inside the road corridor origin→target?
  bool inside_route_corridor(const RreqHeader& h) const;

  double horizon_;
  double sigma_;
  int max_hops_;
  GeometryMode geometry_;
  double corridor_half_width_;
  mutable CorridorCache corridors_;  ///< keyed by (rreq_origin, target)
};

}  // namespace vanet::routing

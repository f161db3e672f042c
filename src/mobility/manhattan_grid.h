// Manhattan-grid urban mobility: vehicles travel along a lattice of streets
// and turn at intersections with configurable probabilities.
//
// This is the standard urban model used by the zone / grid-gateway / CAR
// family of protocols the survey describes (Sec. VI, VII). Traffic lights are
// deliberately not modelled; turning randomness already produces the
// direction churn those protocols must cope with (documented simplification).
//
// The lattice here is synthesized from ManhattanConfig, not taken from the
// map subsystem — scenarios build a matching map::RoadGraph from the same
// streets_x/streets_y/block values, so routing still sees the roads the
// vehicles use. For mobility over an *arbitrary* road graph (including
// imported CSV maps, where no such reconstruction is possible), use
// GraphMobilityModel (mobility/graph_mobility.h) instead.
#pragma once

#include <vector>

#include "mobility/mobility_model.h"

namespace vanet::mobility {

/// Shared by ManhattanGridModel and the scenario's grid map source: the same
/// streets_x/streets_y/block triple defines both the synthesized motion
/// lattice and the map::RoadGraph that routing sees.
struct ManhattanConfig {
  int streets_x = 5;        ///< number of vertical streets (constant-x lines)
  int streets_y = 5;        ///< number of horizontal streets (constant-y lines)
  double block = 200.0;     ///< street spacing, m (intersection (0,0) at origin)
  double speed_mean = 13.9; ///< m/s, ~50 km/h; per-vehicle normal draw
  double speed_stddev = 2.0;///< m/s; draws are floored at 2 m/s
  double turn_prob_left = 0.25;   ///< remainder after left+right goes straight
  double turn_prob_right = 0.25;
};

class ManhattanGridModel final : public MobilityModel {
 public:
  explicit ManhattanGridModel(ManhattanConfig cfg);

  /// Place `count` vehicles at random intersections with random directions.
  void populate(int count, core::Rng& rng);

  /// Spawn one vehicle at intersection (ix, iy) heading `dir` (0:+x 1:-x 2:+y 3:-y).
  VehicleId add_vehicle(int ix, int iy, int dir, double speed);

  void step(double dt, core::Rng& rng) override;
  const std::vector<VehicleState>& vehicles() const override { return states_; }


 private:
  struct Car {
    core::Vec2 pos;
    int dir = 0;          ///< 0:+x 1:-x 2:+y 3:-y
    core::Vec2 target;    ///< next intersection on the current street
    double speed = 13.9;
  };

  static core::Vec2 dir_vec(int dir);
  /// Choose the outgoing direction at intersection (ix, iy), never reversing
  /// unless it is the only in-grid option.
  int choose_turn(int ix, int iy, int incoming_dir, core::Rng& rng) const;
  bool target_in_grid(int ix, int iy, int dir) const;
  void set_target_from(Car& c, int ix, int iy);

  ManhattanConfig cfg_;
  std::vector<VehicleState> states_;
  std::vector<Car> cars_;
};

}  // namespace vanet::mobility

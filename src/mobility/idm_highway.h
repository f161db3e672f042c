// Multi-lane bidirectional highway with IDM car-following and simple
// incentive/safety lane changes (a MOBIL-lite policy).
//
// Geometry: the carriageway for each travel direction is a ring of `length`
// metres (positions wrap), so vehicle density stays constant over a run —
// the steady-state regime the survey's Table I compares protocols in.
// Forward lanes head +x at y >= 0; backward lanes head -x below a median gap.
#pragma once

#include <vector>

#include "mobility/mobility_model.h"

namespace vanet::mobility {

/// Intelligent Driver Model parameters (Treiber et al.).
struct IdmParams {
  double desired_speed = 30.0;        ///< v0, m/s
  double desired_speed_stddev = 3.0;  ///< per-vehicle v0 ~ N(v0, sd)
  double time_headway = 1.5;          ///< T, s
  double min_gap = 2.0;               ///< s0, m
  double max_accel = 1.5;             ///< a, m/s^2
  double comfortable_decel = 2.0;     ///< b, m/s^2
  double vehicle_length = 5.0;        ///< m (the paper's CAR protocol uses 5 m)
};

struct HighwayConfig {
  double length = 5000.0;          ///< ring length per direction, m
  int lanes_per_direction = 2;
  bool bidirectional = true;
  double lane_width = 4.0;         ///< m
  double median_gap = 8.0;         ///< m between the two carriageways
  double lane_change_prob = 0.1;   ///< per-vehicle evaluation probability per step
  IdmParams idm;
};

class IdmHighwayModel final : public MobilityModel {
 public:
  explicit IdmHighwayModel(HighwayConfig cfg);

  /// Direction 0 heads +x, direction 1 heads -x.
  /// `s` is the arc position along the direction of travel, in [0, length).
  VehicleId add_vehicle(int direction, int lane, double s, double desired_speed);

  /// Place `per_direction` vehicles uniformly at random (position, lane) with
  /// desired speeds drawn from the configured normal distribution.
  void populate(int per_direction, core::Rng& rng);

  void step(double dt, core::Rng& rng) override;
  const std::vector<VehicleState>& vehicles() const override { return states_; }

  const HighwayConfig& config() const { return cfg_; }
  double arc_position(VehicleId id) const { return cars_.at(id).s; }
  int direction(VehicleId id) const { return cars_.at(id).direction; }
  double desired_speed(VehicleId id) const { return cars_.at(id).desired_speed; }

 private:
  struct Car {
    double s = 0.0;
    double speed = 0.0;
    double accel = 0.0;
    double desired_speed = 30.0;
    int lane = 0;
    int direction = 0;
  };

  /// IDM acceleration for follower at speed v with `gap` to a leader at
  /// `leader_speed`; `gap` < 0 means free road.
  double idm_accel(double v, double v0, double gap, double leader_speed) const;
  void sync_world_state(VehicleId id);
  /// Leader gap/speed for a hypothetical car at (direction, lane, s); returns
  /// false when the lane is empty apart from `self`. Ties in distance go to
  /// the lowest id.
  bool leader_of(VehicleId self, int lane, double s, double& gap,
                 double& leader_speed) const;
  /// leader_of over the lane list `ids`, where `past` is its first car
  /// beyond `s`.
  bool leader_in(const std::vector<VehicleId>& ids,
                 std::vector<VehicleId>::const_iterator past, VehicleId self,
                 double s, double& gap, double& leader_speed) const;
  bool follower_of(VehicleId self, int lane, double s, double& gap,
                   double& follower_speed) const;
  void maybe_change_lane(VehicleId id);

  /// Strict (s, id) order of the lane lists.
  bool before(VehicleId a, VehicleId b) const;
  /// Index of the (direction, lane) list in `lanes_`.
  std::size_t lane_slot(int direction, int lane) const;
  void insert_into_lane(VehicleId id);
  void erase_from_lane(VehicleId id);

  HighwayConfig cfg_;
  std::vector<VehicleState> states_;  // world-frame mirror of cars_
  std::vector<Car> cars_;             // indexed by VehicleId
  // One list per (direction, lane), sorted by (s, id).
  std::vector<std::vector<VehicleId>> lanes_;
};

}  // namespace vanet::mobility

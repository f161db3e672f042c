// Test fixture: constant-velocity (optionally constant-acceleration) motion
// on a highway ring or in free space.
//
// This is the model under which the paper's link-lifetime equations (Sec.
// IV-A.1, Fig. 3) have closed forms, so tests that need exactly predictable
// vehicle motion drive it. The highway variant wraps positions modulo the
// road length to keep density constant.
#pragma once

#include <cmath>
#include <optional>
#include <vector>

#include "core/assert.h"
#include "mobility/mobility_model.h"

namespace vanet::mobility {

class ConstantVelocityModel final : public MobilityModel {
 public:
  /// Free-space motion: vehicles keep their initial velocity/acceleration.
  ConstantVelocityModel() = default;

  /// Highway ring of `length` metres: x wraps modulo length, y is preserved.
  explicit ConstantVelocityModel(double ring_length) : ring_length_{ring_length} {}

  /// Adds a vehicle and returns its id (assigned sequentially from 0).
  VehicleId add_vehicle(core::Vec2 pos, core::Vec2 heading, double speed,
                        double accel = 0.0, int lane = 0) {
    VANET_ASSERT_MSG(heading.norm() > 0.0, "heading must be non-zero");
    VehicleState s;
    s.id = static_cast<VehicleId>(states_.size());
    s.pos = pos;
    s.heading = heading.normalized();
    s.speed = speed;
    s.accel = accel;
    s.lane = lane;
    states_.push_back(s);
    return s.id;
  }

  void step(double dt, core::Rng& /*rng*/) override {
    for (auto& s : states_) {
      // Exact constant-acceleration kinematics; speed clamps at zero
      // (vehicles do not reverse).
      double new_speed = s.speed + s.accel * dt;
      double travelled = 0.0;
      if (new_speed < 0.0) {
        // Decelerated to a stop partway through the step.
        const double t_stop = s.accel != 0.0 ? -s.speed / s.accel : 0.0;
        travelled = s.speed * t_stop + 0.5 * s.accel * t_stop * t_stop;
        new_speed = 0.0;
        s.accel = 0.0;
      } else {
        travelled = s.speed * dt + 0.5 * s.accel * dt * dt;
      }
      s.pos += s.heading * travelled;
      s.speed = new_speed;
      if (ring_length_) {
        s.pos.x = std::fmod(s.pos.x, *ring_length_);
        if (s.pos.x < 0.0) s.pos.x += *ring_length_;
      }
    }
  }

  const std::vector<VehicleState>& vehicles() const override { return states_; }

 private:
  std::vector<VehicleState> states_;
  std::optional<double> ring_length_;
};

}  // namespace vanet::mobility

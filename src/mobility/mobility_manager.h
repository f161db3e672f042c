// Drives a MobilityModel from simulator events and indexes the result.
//
// On every tick the manager steps the model, refreshes the id -> state index,
// and invokes registered listeners (the network uses one to update its
// spatial grid and check link breaks).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "core/simulator.h"
#include "mobility/mobility_model.h"

namespace vanet::mobility {

class MobilityManager {
 public:
  /// The manager draws per-step randomness from `rng` (a dedicated stream).
  MobilityManager(core::Simulator& sim, std::unique_ptr<MobilityModel> model,
                  core::Rng& rng,
                  core::SimTime tick = core::SimTime::millis(100));

  /// Begin periodic stepping (first step after one tick).
  void start();

  MobilityModel& model() { return *model_; }

  const VehicleState& state(VehicleId id) const;
  bool has_vehicle(VehicleId id) const {
    return id < index_.size() && index_[id] != kNoVehicle;
  }
  /// Index of `id` in model().vehicles(), or npos when the id is not a
  /// vehicle (RSUs live outside the mobility model).
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t model_index(VehicleId id) const {
    return id < index_.size() ? index_[id] : npos;
  }
  const std::vector<VehicleState>& vehicles() const { return model_->vehicles(); }

  /// Called after every step with the new simulation time.
  void add_tick_listener(std::function<void(core::SimTime)> fn);

 private:
  static constexpr std::size_t kNoVehicle = static_cast<std::size_t>(-1);

  void on_tick();
  void rebuild_index();

  core::Simulator& sim_;
  std::unique_ptr<MobilityModel> model_;
  core::Rng& rng_;
  core::SimTime tick_;
  bool running_ = false;
  /// id -> index into model vehicles(); dense vector so the per-tick rebuild
  /// never hashes (ids are small and stable over a model's lifetime).
  std::vector<std::size_t> index_;
  std::vector<std::function<void(core::SimTime)>> listeners_;
};

}  // namespace vanet::mobility

#include "mobility/mobility_manager.h"

#include <algorithm>
#include <stdexcept>

#include "core/assert.h"

namespace vanet::mobility {

MobilityManager::MobilityManager(core::Simulator& sim,
                                 std::unique_ptr<MobilityModel> model,
                                 core::Rng& rng, core::SimTime tick)
    : sim_{sim}, model_{std::move(model)}, rng_{rng}, tick_{tick} {
  VANET_ASSERT(model_ != nullptr);
  // Thrown (not asserted): a bad sweep value must become a structured failure
  // row in the experiment engine, not a process abort.
  if (tick_ <= core::SimTime::zero()) {
    throw std::invalid_argument("mobility_tick_s must be > 0");
  }
  rebuild_index();
}

void MobilityManager::start() {
  if (running_) return;
  running_ = true;
  // One recurring timer drives every tick; cancel() in stop() retires it.
  pending_ = sim_.schedule_every(tick_, tick_, [this] { on_tick(); });
}

void MobilityManager::stop() {
  running_ = false;
  pending_.cancel();
}

void MobilityManager::on_tick() {
  if (!running_) return;
  model_->step(tick_.as_seconds(), rng_);
  rebuild_index();
  for (const auto& fn : listeners_) fn(sim_.now());
}

void MobilityManager::rebuild_index() {
  const auto& vs = model_->vehicles();
  std::fill(index_.begin(), index_.end(), kNoVehicle);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const VehicleId id = vs[i].id;
    if (id >= index_.size()) index_.resize(id + 1, kNoVehicle);
    index_[id] = i;
  }
}

const VehicleState& MobilityManager::state(VehicleId id) const {
  VANET_ASSERT_MSG(has_vehicle(id), "unknown vehicle id");
  return model_->vehicles()[index_[id]];
}

void MobilityManager::add_tick_listener(std::function<void(core::SimTime)> fn) {
  listeners_.push_back(std::move(fn));
}

}  // namespace vanet::mobility

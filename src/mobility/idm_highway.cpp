#include "mobility/idm_highway.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "core/assert.h"

namespace vanet::mobility {

namespace {

/// The nearest car found so far: least distance, ties to the lowest id.
struct Nearest {
  double dist = 0.0;
  VehicleId id = 0;
  bool found = false;

  /// Offers each car of [first, last) but `self`. Distances must never
  /// shrink along the range, so the walk stops at the first car farther than
  /// the nearest so far.
  template <typename It, typename Distance>
  void walk(It first, It last, VehicleId self, const Distance& distance) {
    for (; first != last; ++first) {
      if (*first == self) continue;
      const double d = distance(*first);
      if (found && d > dist) return;
      if (!found || d < dist || *first < id) {
        dist = d;
        id = *first;
        found = true;
      }
    }
  }
};

}  // namespace

IdmHighwayModel::IdmHighwayModel(HighwayConfig cfg) : cfg_{cfg} {
  VANET_ASSERT(cfg_.length > 0.0);
  VANET_ASSERT(cfg_.lanes_per_direction >= 1);
  lanes_.resize(static_cast<std::size_t>((cfg_.bidirectional ? 2 : 1) *
                                         cfg_.lanes_per_direction));
}

VehicleId IdmHighwayModel::add_vehicle(int direction, int lane, double s,
                                       double desired_speed) {
  VANET_ASSERT(direction == 0 || (direction == 1 && cfg_.bidirectional));
  VANET_ASSERT(lane >= 0 && lane < cfg_.lanes_per_direction);
  VANET_ASSERT(s >= 0.0 && s < cfg_.length);
  Car c;
  c.s = s;
  c.speed = std::max(0.0, desired_speed * 0.8);  // enter below free-flow speed
  c.desired_speed = desired_speed;
  c.lane = lane;
  c.direction = direction;
  const auto id = static_cast<VehicleId>(cars_.size());
  cars_.push_back(c);
  insert_into_lane(id);
  VehicleState blank;
  blank.id = id;
  states_.push_back(blank);
  sync_world_state(id);
  return id;
}

void IdmHighwayModel::populate(int per_direction, core::Rng& rng) {
  const int directions = cfg_.bidirectional ? 2 : 1;
  for (int d = 0; d < directions; ++d) {
    for (int i = 0; i < per_direction; ++i) {
      const double s = rng.uniform(0.0, cfg_.length);
      const int lane =
          static_cast<int>(rng.uniform_int(0, cfg_.lanes_per_direction - 1));
      const double v0 = std::max(
          5.0, rng.normal(cfg_.idm.desired_speed, cfg_.idm.desired_speed_stddev));
      add_vehicle(d, lane, s, v0);
    }
  }
}

void IdmHighwayModel::sync_world_state(VehicleId id) {
  const Car& c = cars_[id];
  VehicleState& w = states_[id];
  w.id = id;
  if (c.direction == 0) {
    w.pos = {c.s, c.lane * cfg_.lane_width};
    w.heading = {1.0, 0.0};
  } else {
    w.pos = {cfg_.length - c.s, -(cfg_.median_gap + c.lane * cfg_.lane_width)};
    w.heading = {-1.0, 0.0};
  }
  w.speed = c.speed;
  w.accel = c.accel;
  w.lane = c.direction * cfg_.lanes_per_direction + c.lane;
}

double IdmHighwayModel::idm_accel(double v, double v0, double gap,
                                  double leader_speed) const {
  const IdmParams& p = cfg_.idm;
  const double free_term = 1.0 - std::pow(v / std::max(v0, 0.1), 4.0);
  if (gap < 0.0) return p.max_accel * free_term;  // free road
  const double dv = v - leader_speed;
  const double s_star =
      p.min_gap + std::max(0.0, v * p.time_headway +
                                    v * dv / (2.0 * std::sqrt(p.max_accel *
                                                              p.comfortable_decel)));
  const double g = std::max(gap, 0.1);
  return p.max_accel * (free_term - (s_star / g) * (s_star / g));
}

bool IdmHighwayModel::before(VehicleId a, VehicleId b) const {
  return cars_[a].s < cars_[b].s || (cars_[a].s == cars_[b].s && a < b);
}

std::size_t IdmHighwayModel::lane_slot(int direction, int lane) const {
  return static_cast<std::size_t>(direction * cfg_.lanes_per_direction + lane);
}

void IdmHighwayModel::insert_into_lane(VehicleId id) {
  auto& ids = lanes_[lane_slot(cars_[id].direction, cars_[id].lane)];
  ids.insert(std::upper_bound(ids.begin(), ids.end(), id,
                              [this](VehicleId a, VehicleId b) {
                                return before(a, b);
                              }),
             id);
}

void IdmHighwayModel::erase_from_lane(VehicleId id) {
  auto& ids = lanes_[lane_slot(cars_[id].direction, cars_[id].lane)];
  ids.erase(std::lower_bound(ids.begin(), ids.end(), id,
                             [this](VehicleId a, VehicleId b) {
                               return before(a, b);
                             }));
}

bool IdmHighwayModel::leader_of(VehicleId self, int lane, double s, double& gap,
                                double& leader_speed) const {
  const auto& ids = lanes_[lane_slot(cars_[self].direction, lane)];
  const auto past = std::upper_bound(
      ids.begin(), ids.end(), s,
      [this](double x, VehicleId id) { return x < cars_[id].s; });
  return leader_in(ids, past, self, s, gap, leader_speed);
}

bool IdmHighwayModel::leader_in(const std::vector<VehicleId>& ids,
                                std::vector<VehicleId>::const_iterator past,
                                VehicleId self, double s, double& gap,
                                double& leader_speed) const {
  const auto ahead_of = [&](VehicleId other) {
    double ahead = cars_[other].s - s;
    if (ahead <= 0.0) ahead += cfg_.length;  // ring wrap
    return ahead;
  };
  // Distances grow walking forward from the first car past `s`, and again
  // from the lane's start (those cars are reached by wrapping the ring).
  Nearest best;
  best.walk(past, ids.end(), self, ahead_of);
  best.walk(ids.begin(), past, self, ahead_of);
  if (!best.found) return false;
  gap = best.dist - cfg_.idm.vehicle_length;
  leader_speed = cars_[best.id].speed;
  return true;
}

bool IdmHighwayModel::follower_of(VehicleId self, int lane, double s, double& gap,
                                  double& follower_speed) const {
  const auto& ids = lanes_[lane_slot(cars_[self].direction, lane)];
  const auto behind_of = [&](VehicleId other) {
    double behind = s - cars_[other].s;
    if (behind <= 0.0) behind += cfg_.length;
    return behind;
  };
  // Distances grow walking backward from the last car short of `s`, and
  // again from the lane's end (those cars are reached by wrapping the ring).
  const auto short_of = std::make_reverse_iterator(std::lower_bound(
      ids.begin(), ids.end(), s,
      [this](VehicleId id, double x) { return cars_[id].s < x; }));
  Nearest best;
  best.walk(short_of, ids.rend(), self, behind_of);
  best.walk(ids.rbegin(), short_of, self, behind_of);
  if (!best.found) return false;
  gap = best.dist - cfg_.idm.vehicle_length;
  follower_speed = cars_[best.id].speed;
  return true;
}

void IdmHighwayModel::maybe_change_lane(VehicleId id) {
  Car& c = cars_[id];
  double cur_gap = -1.0, cur_leader_speed = 0.0;
  leader_of(id, c.lane, c.s, cur_gap, cur_leader_speed);
  for (const int target : {c.lane - 1, c.lane + 1}) {
    if (target < 0 || target >= cfg_.lanes_per_direction) continue;
    double new_gap = -1.0, new_leader_speed = 0.0;
    const bool has_leader = leader_of(id, target, c.s, new_gap, new_leader_speed);
    double back_gap = -1.0, follower_speed = 0.0;
    const bool has_follower =
        follower_of(id, target, c.s, back_gap, follower_speed);
    // Safety: both gaps in the target lane must exceed a speed-dependent margin.
    const double safe_ahead = cfg_.idm.min_gap + 0.5 * c.speed;
    const double safe_behind = cfg_.idm.min_gap + 0.5 * follower_speed;
    if (has_leader && new_gap < safe_ahead) continue;
    if (has_follower && back_gap < safe_behind) continue;
    // Incentive: noticeably more headway than the current lane offers.
    const double cur = cur_gap < 0.0 ? cfg_.length : cur_gap;
    const double alt = !has_leader ? cfg_.length : new_gap;
    if (alt > 1.2 * cur + cfg_.idm.min_gap) {
      erase_from_lane(id);
      c.lane = target;
      insert_into_lane(id);
      return;
    }
  }
}

void IdmHighwayModel::step(double dt, core::Rng& rng) {
  VANET_ASSERT(dt > 0.0);
  // Phase 1: compute accelerations against the *current* snapshot, lane by
  // lane, so each car's leader search starts right after it in its list.
  for (const auto& ids : lanes_) {
    for (auto it = ids.begin(); it != ids.end(); ++it) {
      Car& c = cars_[*it];
      auto past = std::next(it);
      while (past != ids.end() && cars_[*past].s == c.s) ++past;
      double gap = -1.0, leader_speed = 0.0;
      if (!leader_in(ids, past, *it, c.s, gap, leader_speed)) gap = -1.0;
      c.accel = idm_accel(c.speed, c.desired_speed, gap, leader_speed);
      // Bound braking at a physical limit (emergency braking).
      c.accel = std::max(c.accel, -3.0 * cfg_.idm.comfortable_decel);
    }
  }
  // Phase 2: integrate.
  for (VehicleId id = 0; id < cars_.size(); ++id) {
    Car& c = cars_[id];
    const double new_speed = std::max(0.0, c.speed + c.accel * dt);
    c.s += 0.5 * (c.speed + new_speed) * dt;
    c.speed = new_speed;
    if (c.s >= cfg_.length) c.s -= cfg_.length;
  }
  // Re-sort the lanes by insertion: they stay nearly sorted, and mostly only
  // the cars that wrapped the ring move, from the back to the front.
  const auto by_position = [this](VehicleId a, VehicleId b) {
    return before(a, b);
  };
  for (auto& ids : lanes_) {
    for (auto it = ids.begin(); it != ids.end(); ++it) {
      if (it != ids.begin() && by_position(*it, *std::prev(it))) {
        std::rotate(std::upper_bound(ids.begin(), it, *it, by_position), it,
                    std::next(it));
      }
    }
  }
  // Phase 3: occasional lane changes.
  for (VehicleId id = 0; id < cars_.size(); ++id) {
    if (cfg_.lanes_per_direction > 1 && rng.bernoulli(cfg_.lane_change_prob)) {
      maybe_change_lane(id);
    }
  }
  for (VehicleId id = 0; id < cars_.size(); ++id) sync_world_state(id);
}

}  // namespace vanet::mobility

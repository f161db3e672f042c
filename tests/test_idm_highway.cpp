#include "mobility/idm_highway.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/rng.h"

namespace vanet::mobility {
namespace {

HighwayConfig small_config() {
  HighwayConfig cfg;
  cfg.length = 2000.0;
  cfg.lanes_per_direction = 2;
  return cfg;
}

TEST(IdmHighway, PopulateCounts) {
  IdmHighwayModel m{small_config()};
  core::Rng rng{3};
  m.populate(30, rng);
  EXPECT_EQ(m.vehicles().size(), 60u);  // bidirectional
}

TEST(IdmHighway, UnidirectionalPopulate) {
  HighwayConfig cfg = small_config();
  cfg.bidirectional = false;
  IdmHighwayModel m{cfg};
  core::Rng rng{3};
  m.populate(25, rng);
  EXPECT_EQ(m.vehicles().size(), 25u);
}

TEST(IdmHighway, WorldMappingDirections) {
  IdmHighwayModel m{small_config()};
  const VehicleId fwd = m.add_vehicle(0, 1, 500.0, 30.0);
  const VehicleId bwd = m.add_vehicle(1, 0, 500.0, 30.0);
  const auto& f = m.state(fwd);
  const auto& b = m.state(bwd);
  EXPECT_DOUBLE_EQ(f.pos.x, 500.0);
  EXPECT_DOUBLE_EQ(f.pos.y, 4.0);  // lane 1 * lane_width
  EXPECT_DOUBLE_EQ(f.heading.x, 1.0);
  EXPECT_DOUBLE_EQ(b.pos.x, 1500.0);  // length - s
  EXPECT_LT(b.pos.y, 0.0);            // other carriageway
  EXPECT_DOUBLE_EQ(b.heading.x, -1.0);
}

TEST(IdmHighway, FreeRoadAcceleratesTowardDesiredSpeed) {
  HighwayConfig cfg = small_config();
  cfg.bidirectional = false;
  cfg.lanes_per_direction = 1;
  IdmHighwayModel m{cfg};
  const VehicleId id = m.add_vehicle(0, 0, 0.0, 30.0);
  core::Rng rng{3};
  for (int i = 0; i < 600; ++i) m.step(0.1, rng);
  EXPECT_NEAR(m.state(id).speed, 30.0, 1.0);
}

TEST(IdmHighway, FollowerKeepsSafeGap) {
  HighwayConfig cfg = small_config();
  cfg.bidirectional = false;
  cfg.lanes_per_direction = 1;
  cfg.lane_change_prob = 0.0;
  IdmHighwayModel m{cfg};
  const VehicleId lead = m.add_vehicle(0, 0, 100.0, 15.0);  // slow leader
  const VehicleId tail = m.add_vehicle(0, 0, 60.0, 35.0);   // fast follower
  core::Rng rng{3};
  for (int i = 0; i < 1200; ++i) {
    m.step(0.1, rng);
    // Direction 0 heads +x from x = 0, so x is the arc position.
    double gap = m.state(lead).pos.x - m.state(tail).pos.x;
    if (gap < 0.0) gap += cfg.length;
    EXPECT_GT(gap, cfg.idm.vehicle_length * 0.5)
        << "collision at step " << i;
  }
  // The follower must have slowed to roughly the leader's speed.
  EXPECT_NEAR(m.state(tail).speed, m.state(lead).speed, 3.0);
}

TEST(IdmHighway, SpeedsStayNonNegativeAndBounded) {
  IdmHighwayModel m{small_config()};
  core::Rng rng{5};
  m.populate(40, rng);
  for (int i = 0; i < 600; ++i) {
    m.step(0.1, rng);
    for (const auto& v : m.vehicles()) {
      EXPECT_GE(v.speed, 0.0);
      EXPECT_LT(v.speed, 60.0);
      EXPECT_TRUE(std::isfinite(v.pos.x));
    }
  }
}

TEST(IdmHighway, PositionsStayOnRing) {
  IdmHighwayModel m{small_config()};
  core::Rng rng{7};
  m.populate(30, rng);
  for (int i = 0; i < 1000; ++i) m.step(0.1, rng);
  for (const auto& v : m.vehicles()) {
    EXPECT_GE(v.pos.x, 0.0);
    EXPECT_LE(v.pos.x, 2000.0);
  }
}

TEST(IdmHighway, LaneChangesStayInBounds) {
  IdmHighwayModel m{small_config()};
  core::Rng rng{11};
  m.populate(50, rng);
  for (int i = 0; i < 600; ++i) {
    m.step(0.1, rng);
    for (const auto& v : m.vehicles()) {
      EXPECT_GE(v.lane, 0);
      EXPECT_LT(v.lane, 4);  // 2 lanes x 2 directions
    }
  }
}

TEST(IdmHighway, DirectionsNeverMix) {
  IdmHighwayModel m{small_config()};
  core::Rng rng{13};
  m.populate(20, rng);
  std::vector<int> initial;
  for (const auto& v : m.vehicles()) initial.push_back(m.direction(v.id));
  for (int i = 0; i < 300; ++i) m.step(0.1, rng);
  for (const auto& v : m.vehicles()) {
    EXPECT_EQ(m.direction(v.id), initial[v.id]);
    // Heading matches direction.
    EXPECT_DOUBLE_EQ(v.heading.x, m.direction(v.id) == 0 ? 1.0 : -1.0);
  }
}

// The model as it was before the per-lane index: every leader and follower
// lookup scans all vehicles. Kept as the reference the indexed model must
// reproduce bit for bit.
class LinearScanHighway {
 public:
  explicit LinearScanHighway(HighwayConfig cfg) : cfg_{cfg} {}

  VehicleId add_vehicle(int direction, int lane, double s,
                        double desired_speed) {
    Car c;
    c.s = s;
    c.speed = std::max(0.0, desired_speed * 0.8);
    c.desired_speed = desired_speed;
    c.lane = lane;
    c.direction = direction;
    const auto id = static_cast<VehicleId>(cars_.size());
    cars_.push_back(c);
    VehicleState blank;
    blank.id = id;
    states_.push_back(blank);
    sync_world_state(id);
    return id;
  }

  void populate(int per_direction, core::Rng& rng) {
    const int directions = cfg_.bidirectional ? 2 : 1;
    for (int d = 0; d < directions; ++d) {
      for (int i = 0; i < per_direction; ++i) {
        const double s = rng.uniform(0.0, cfg_.length);
        const int lane =
            static_cast<int>(rng.uniform_int(0, cfg_.lanes_per_direction - 1));
        const double v0 = std::max(
            5.0,
            rng.normal(cfg_.idm.desired_speed, cfg_.idm.desired_speed_stddev));
        add_vehicle(d, lane, s, v0);
      }
    }
  }

  void step(double dt, core::Rng& rng) {
    for (VehicleId id = 0; id < cars_.size(); ++id) {
      Car& c = cars_[id];
      double gap = -1.0, leader_speed = 0.0;
      if (!leader_of(id, c.lane, c.s, gap, leader_speed)) gap = -1.0;
      c.accel = idm_accel(c.speed, c.desired_speed, gap, leader_speed);
      c.accel = std::max(c.accel, -3.0 * cfg_.idm.comfortable_decel);
    }
    for (VehicleId id = 0; id < cars_.size(); ++id) {
      Car& c = cars_[id];
      const double new_speed = std::max(0.0, c.speed + c.accel * dt);
      c.s += 0.5 * (c.speed + new_speed) * dt;
      c.speed = new_speed;
      if (c.s >= cfg_.length) c.s -= cfg_.length;
    }
    for (VehicleId id = 0; id < cars_.size(); ++id) {
      if (cfg_.lanes_per_direction > 1 &&
          rng.bernoulli(cfg_.lane_change_prob)) {
        maybe_change_lane(id);
      }
    }
    for (VehicleId id = 0; id < cars_.size(); ++id) sync_world_state(id);
  }

  const std::vector<VehicleState>& vehicles() const { return states_; }

 private:
  struct Car {
    double s = 0.0;
    double speed = 0.0;
    double accel = 0.0;
    double desired_speed = 30.0;
    int lane = 0;
    int direction = 0;
  };

  void sync_world_state(VehicleId id) {
    const Car& c = cars_[id];
    VehicleState& w = states_[id];
    w.id = id;
    if (c.direction == 0) {
      w.pos = {c.s, c.lane * cfg_.lane_width};
      w.heading = {1.0, 0.0};
    } else {
      w.pos = {cfg_.length - c.s,
               -(cfg_.median_gap + c.lane * cfg_.lane_width)};
      w.heading = {-1.0, 0.0};
    }
    w.speed = c.speed;
    w.accel = c.accel;
    w.lane = c.direction * cfg_.lanes_per_direction + c.lane;
  }

  double idm_accel(double v, double v0, double gap, double leader_speed) const {
    const IdmParams& p = cfg_.idm;
    const double free_term = 1.0 - std::pow(v / std::max(v0, 0.1), 4.0);
    if (gap < 0.0) return p.max_accel * free_term;
    const double dv = v - leader_speed;
    const double s_star =
        p.min_gap +
        std::max(0.0, v * p.time_headway +
                          v * dv /
                              (2.0 * std::sqrt(p.max_accel *
                                               p.comfortable_decel)));
    const double g = std::max(gap, 0.1);
    return p.max_accel * (free_term - (s_star / g) * (s_star / g));
  }

  bool leader_of(VehicleId self, int lane, double s, double& gap,
                 double& leader_speed) const {
    const Car& me = cars_[self];
    double best = cfg_.length + 1.0;
    bool found = false;
    for (VehicleId other = 0; other < cars_.size(); ++other) {
      if (other == self) continue;
      const Car& o = cars_[other];
      if (o.direction != me.direction || o.lane != lane) continue;
      double ahead = o.s - s;
      if (ahead <= 0.0) ahead += cfg_.length;
      if (ahead < best) {
        best = ahead;
        leader_speed = o.speed;
        found = true;
      }
    }
    if (!found) return false;
    gap = best - cfg_.idm.vehicle_length;
    return true;
  }

  bool follower_of(VehicleId self, int lane, double s, double& gap,
                   double& follower_speed) const {
    const Car& me = cars_[self];
    double best = cfg_.length + 1.0;
    bool found = false;
    for (VehicleId other = 0; other < cars_.size(); ++other) {
      if (other == self) continue;
      const Car& o = cars_[other];
      if (o.direction != me.direction || o.lane != lane) continue;
      double behind = s - o.s;
      if (behind <= 0.0) behind += cfg_.length;
      if (behind < best) {
        best = behind;
        follower_speed = o.speed;
        found = true;
      }
    }
    if (!found) return false;
    gap = best - cfg_.idm.vehicle_length;
    return true;
  }

  void maybe_change_lane(VehicleId id) {
    Car& c = cars_[id];
    double cur_gap = -1.0, cur_leader_speed = 0.0;
    leader_of(id, c.lane, c.s, cur_gap, cur_leader_speed);
    for (const int target : {c.lane - 1, c.lane + 1}) {
      if (target < 0 || target >= cfg_.lanes_per_direction) continue;
      double new_gap = -1.0, new_leader_speed = 0.0;
      const bool has_leader =
          leader_of(id, target, c.s, new_gap, new_leader_speed);
      double back_gap = -1.0, follower_speed = 0.0;
      const bool has_follower =
          follower_of(id, target, c.s, back_gap, follower_speed);
      const double safe_ahead = cfg_.idm.min_gap + 0.5 * c.speed;
      const double safe_behind = cfg_.idm.min_gap + 0.5 * follower_speed;
      if (has_leader && new_gap < safe_ahead) continue;
      if (has_follower && back_gap < safe_behind) continue;
      const double cur = cur_gap < 0.0 ? cfg_.length : cur_gap;
      const double alt = !has_leader ? cfg_.length : new_gap;
      if (alt > 1.2 * cur + cfg_.idm.min_gap) {
        c.lane = target;
        return;
      }
    }
  }

  HighwayConfig cfg_;
  std::vector<VehicleState> states_;
  std::vector<Car> cars_;
};

/// Every field of every vehicle as raw bits, so -0.0 and 0.0 differ.
std::vector<std::uint64_t> state_bits(const std::vector<VehicleState>& vs) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::vector<std::uint64_t> out;
  for (const auto& v : vs) {
    out.insert(out.end(),
               {v.id, bits(v.pos.x), bits(v.pos.y), bits(v.heading.x),
                bits(v.heading.y), bits(v.speed), bits(v.accel),
                static_cast<std::uint64_t>(v.lane)});
  }
  return out;
}

/// Builds both models with `setup` on equally seeded RNGs, steps them side
/// by side and requires bit-identical vehicle states after every step.
/// Returns the number of lane changes seen, so callers can check that the
/// run exercised them.
template <typename Setup>
int expect_matches_linear_scan(const HighwayConfig& cfg, std::uint64_t seed,
                               int steps, const Setup& setup) {
  IdmHighwayModel indexed{cfg};
  LinearScanHighway reference{cfg};
  core::Rng indexed_rng{seed};
  core::Rng reference_rng{seed};
  setup(indexed, indexed_rng);
  setup(reference, reference_rng);
  EXPECT_EQ(state_bits(indexed.vehicles()), state_bits(reference.vehicles()));
  int lane_changes = 0;
  for (int i = 0; i < steps; ++i) {
    const std::vector<VehicleState> before = reference.vehicles();
    indexed.step(0.1, indexed_rng);
    reference.step(0.1, reference_rng);
    if (state_bits(indexed.vehicles()) != state_bits(reference.vehicles())) {
      ADD_FAILURE() << "states diverge at step " << i << " (seed " << seed
                    << ")";
      return lane_changes;
    }
    for (std::size_t v = 0; v < before.size(); ++v) {
      if (before[v].lane != reference.vehicles()[v].lane) ++lane_changes;
    }
  }
  return lane_changes;
}

TEST(IdmHighwayIndex, MatchesLinearScanOnRandomPopulations) {
  for (const int lanes : {1, 2, 4}) {
    for (const bool bidirectional : {true, false}) {
      for (const double change_prob : {0.1, 1.0}) {
        for (const int per_direction : {12, 70, 140}) {
          HighwayConfig cfg;
          cfg.length = 2000.0;
          cfg.lanes_per_direction = lanes;
          cfg.bidirectional = bidirectional;
          cfg.lane_change_prob = change_prob;
          const auto seed = static_cast<std::uint64_t>(
              lanes * 1000 + per_direction + (bidirectional ? 1 : 0));
          const int changes = expect_matches_linear_scan(
              cfg, seed, 150, [per_direction](auto& m, core::Rng& rng) {
                m.populate(per_direction, rng);
              });
          if (lanes > 1 && per_direction >= 70) {
            EXPECT_GT(changes, 0);
          }
        }
      }
    }
  }
}

TEST(IdmHighwayIndex, MatchesLinearScanWithCarsAtTheSameArcPosition) {
  HighwayConfig cfg = small_config();
  cfg.lane_change_prob = 1.0;
  const int changes = expect_matches_linear_scan(
      cfg, 21, 300, [](auto& m, core::Rng&) {
        for (const double s : {400.0, 400.0, 400.0, 900.0, 900.0}) {
          m.add_vehicle(0, 0, s, 30.0);
          m.add_vehicle(0, 1, s, 25.0);
          m.add_vehicle(1, 1, s, 28.0);
        }
        m.add_vehicle(0, 1, 400.0, 35.0);
        m.add_vehicle(1, 0, 900.0, 33.0);
      });
  EXPECT_GT(changes, 0);
}

TEST(IdmHighwayIndex, MatchesLinearScanAtTheEndsOfTheRing) {
  HighwayConfig cfg = small_config();
  cfg.lane_change_prob = 1.0;
  const double last = std::nextafter(cfg.length, 0.0);
  expect_matches_linear_scan(cfg, 22, 400, [last](auto& m, core::Rng&) {
    for (int lane = 0; lane < 2; ++lane) {
      m.add_vehicle(0, lane, 0.0, 30.0);
      m.add_vehicle(0, lane, last, 32.0);
      m.add_vehicle(1, lane, last, 27.0);
      m.add_vehicle(1, lane, 0.0, 31.0);
    }
    m.add_vehicle(0, 0, 0.0, 20.0);
    m.add_vehicle(0, 1, last, 36.0);
    m.add_vehicle(0, 0, 1990.0, 34.0);
    m.add_vehicle(1, 1, 5.0, 24.0);
  });
}

TEST(IdmHighwayIndex, MatchesLinearScanWithEmptyAndSingleCarLanes) {
  HighwayConfig cfg = small_config();
  cfg.lanes_per_direction = 4;
  cfg.bidirectional = false;
  cfg.lane_change_prob = 1.0;
  const int changes = expect_matches_linear_scan(
      cfg, 23, 400, [](auto& m, core::Rng&) {
        m.add_vehicle(0, 1, 1200.0, 30.0);  // alone in lane 1
        for (const double s : {100.0, 130.0, 160.0, 190.0, 220.0}) {
          m.add_vehicle(0, 2, s, 20.0 + s / 20.0);
        }
      });
  EXPECT_GT(changes, 0);
}

TEST(IdmHighwayIndex, MatchesLinearScanWhenRoundingTiesTwoLeaders) {
  HighwayConfig cfg = small_config();
  cfg.lanes_per_direction = 1;
  cfg.bidirectional = false;
  // Seen from s = 1000, both cars behind it wrap to exactly 1000 m ahead
  // (1e-20 - 1000 rounds to -1000). The linear scan takes the lower id,
  // which sorts second in its lane.
  expect_matches_linear_scan(cfg, 25, 50, [](auto& m, core::Rng&) {
    m.add_vehicle(0, 0, 1e-20, 20.0);
    m.add_vehicle(0, 0, 0.0, 30.0);
    m.add_vehicle(0, 0, 1000.0, 30.0);
  });
}

TEST(IdmHighwayIndex, MatchesLinearScanOnASingleLaneRing) {
  HighwayConfig cfg = small_config();
  cfg.lanes_per_direction = 1;
  cfg.lane_change_prob = 1.0;
  expect_matches_linear_scan(cfg, 24, 300, [](auto& m, core::Rng&) {
    m.add_vehicle(0, 0, 1500.0, 30.0);  // one car: free road forever
    for (int i = 0; i < 40; ++i) m.add_vehicle(1, 0, 45.0 * i, 22.0 + i % 9);
  });
}

}  // namespace
}  // namespace vanet::mobility

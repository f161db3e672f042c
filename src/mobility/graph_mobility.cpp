#include "mobility/graph_mobility.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/assert.h"

namespace vanet::mobility {

namespace {
/// Draw caps: trip planning retries (small graphs / disconnected components)
/// and intersections crossed in one step (high dt x short blocks).
constexpr int kTripDraws = 16;
constexpr int kMaxHopsPerStep = 16;
}  // namespace

GraphMobilityModel::GraphMobilityModel(
    std::shared_ptr<const map::RoadGraph> graph, GraphMobilityConfig cfg)
    : graph_{std::move(graph)}, cfg_{cfg} {
  VANET_ASSERT(graph_ != nullptr);
  VANET_ASSERT_MSG(graph_->intersection_count() >= 2,
                   "graph mobility needs at least two intersections");
  for (int i = 0; i < graph_->intersection_count(); ++i) {
    VANET_ASSERT_MSG(graph_->degree(i) > 0,
                     "graph mobility: isolated intersection");
  }
  VANET_ASSERT(cfg_.replan_prob >= 0.0 && cfg_.replan_prob <= 1.0);
}

GraphMobilityModel::GraphMobilityModel(
    std::shared_ptr<const map::RoadGraph> graph, const ManhattanConfig& cfg)
    : GraphMobilityModel{
          std::move(graph),
          GraphMobilityConfig{.speed_mean = cfg.speed_mean,
                              .speed_stddev = cfg.speed_stddev}} {
  turns_ = cfg;
}

int GraphMobilityModel::choose_turn(int from, int here, core::Rng& rng) const {
  // Each exit but the way back is straight (within 45 degrees of the
  // incoming heading), left (counter-clockwise) or right, and weighs its
  // class's probability; two passes over the adjacency draw without a list.
  const core::Vec2 at = graph_->intersection_pos(here);
  const core::Vec2 in = (at - graph_->intersection_pos(from)).normalized();
  const double straight =
      std::max(0.0, 1.0 - turns_->turn_prob_left - turns_->turn_prob_right);
  const auto weight = [&](int next) {
    if (next == from) return 0.0;
    const core::Vec2 out = (graph_->intersection_pos(next) - at).normalized();
    const double cross = in.cross(out);
    if (in.dot(out) >= std::abs(cross)) return straight;
    return cross > 0.0 ? turns_->turn_prob_left : turns_->turn_prob_right;
  };
  double total = 0.0;
  for (const auto& [next, seg] : graph_->adjacency(here)) total += weight(next);
  if (total <= 0.0) return from;  // dead end, or every exit weighs 0
  double pick = rng.uniform(0.0, total);
  int chosen = from;
  for (const auto& [next, seg] : graph_->adjacency(here)) {
    const double w = weight(next);
    if (w <= 0.0) continue;
    chosen = next;  // the last positive exit, should rounding exhaust `pick`
    if ((pick -= w) < 0.0) break;
  }
  return chosen;
}

std::vector<int> GraphMobilityModel::plan_path(int at, int dest) const {
  if (blocked_count_ == 0) return graph_->shortest_path_by_length(at, dest);
  // Blocked segments cost infinity; Dijkstra never relaxes an infinite-cost
  // edge, so the incident is routed around (or `dest` reads unreachable).
  return graph_->shortest_path(at, dest, [this](int seg) {
    return blocked_[static_cast<std::size_t>(seg)] != 0
               ? std::numeric_limits<double>::infinity()
               : graph_->segment_length(seg);
  });
}

void GraphMobilityModel::plan_trip(Car& c, int at, core::Rng& rng) {
  const int n = graph_->intersection_count();
  const core::Vec2 here = graph_->intersection_pos(at);
  // First pass honours the minimum trip length; the second drops it so tiny
  // maps still get real trips; the neighbor fallback covers the remote case
  // of every draw landing in another component.
  for (const bool want_long : {true, false}) {
    for (int tries = 0; tries < kTripDraws; ++tries) {
      const int dest = static_cast<int>(rng.uniform_int(0, n - 1));
      if (dest == at) continue;
      if (want_long &&
          (graph_->intersection_pos(dest) - here).norm() < cfg_.min_trip_m) {
        continue;
      }
      auto path = plan_path(at, dest);
      if (path.size() < 2) continue;  // unreachable
      c.hop(at, path[1]);
      c.dest = dest;
      c.path = std::move(path);
      c.path_idx = 1;
      return;
    }
  }
  // Degree >= 1 is a class invariant, so a one-hop trip always exists.
  // Under incidents, prefer an open exit; when every street out of this
  // intersection is blocked, drive through anyway rather than stranding
  // the vehicle (with blocked_count_ == 0 the draw matches the pre-fault
  // sequence exactly).
  const auto& adj = graph_->adjacency(at);
  std::size_t pick;
  if (blocked_count_ > 0) {
    std::vector<std::size_t> open;
    for (std::size_t k = 0; k < adj.size(); ++k) {
      if (blocked_[static_cast<std::size_t>(adj[k].second)] == 0) {
        open.push_back(k);
      }
    }
    pick = open.empty()
               ? static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(adj.size()) - 1))
               : open[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(open.size()) - 1))];
  } else {
    pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(adj.size()) - 1));
  }
  c.hop(at, adj[pick].first);
}

VehicleId GraphMobilityModel::add_car(Car c) {
  cars_.push_back(std::move(c));
  VehicleState s;
  s.id = static_cast<VehicleId>(states_.size());
  states_.push_back(s);
  refresh_state(states_.size() - 1);
  return states_.back().id;
}

VehicleId GraphMobilityModel::add_vehicle(int from, int to, double speed) {
  VANET_ASSERT(from >= 0 && from < graph_->intersection_count());
  VANET_ASSERT_MSG(graph_->segment_between(from, to) >= 0,
                   "add_vehicle: no segment joins from and to");
  Car c;
  c.hop(from, to);
  c.speed = std::max(1.0, speed);
  return add_car(std::move(c));
}

void GraphMobilityModel::populate(int count, core::Rng& rng) {
  const int n = graph_->intersection_count();
  const auto directed = static_cast<std::int64_t>(2 * graph_->segment_count());
  cars_.reserve(cars_.size() + static_cast<std::size_t>(count));
  states_.reserve(states_.size() + static_cast<std::size_t>(count));
  const auto draw_speed = [&] {
    return std::max(2.0, rng.normal(cfg_.speed_mean, cfg_.speed_stddev));
  };
  for (int i = 0; i < count; ++i) {
    if (turns_) {
      const std::int64_t d = rng.uniform_int(0, directed - 1);
      const auto [a, b] = graph_->segment_ends(static_cast<int>(d / 2));
      const bool forward = d % 2 == 0;
      add_vehicle(forward ? a : b, forward ? b : a, draw_speed());
    } else {
      const int at = static_cast<int>(rng.uniform_int(0, n - 1));
      Car c;
      c.speed = draw_speed();
      plan_trip(c, at, rng);
      add_car(std::move(c));
    }
  }
}

void GraphMobilityModel::step(double dt, core::Rng& rng) {
  VANET_ASSERT(dt > 0.0);
  for (std::size_t i = 0; i < cars_.size(); ++i) {
    Car& c = cars_[i];
    double remaining = c.speed * dt;
    int hops = 0;
    while (remaining > 1e-9 && hops < kMaxHopsPerStep) {
      const int seg = graph_->segment_between(c.from, c.to);
      const double len = graph_->segment_length(seg);
      const double left = len - c.along;
      if (remaining < left) {
        c.along += remaining;
        remaining = 0.0;
        break;
      }
      remaining -= left;
      ++hops;
      const int here = c.to;
      // An incident on the next planned segment forces a re-plan. Evaluated
      // before the replan draw: with nothing blocked this is always false,
      // so fault-free runs consume randomness exactly as before.
      const bool next_blocked =
          blocked_count_ > 0 && c.path_idx + 1 < c.path.size() &&
          blocked_[static_cast<std::size_t>(graph_->segment_between(
              here, c.path[c.path_idx + 1]))] != 0;
      if (turns_) {
        c.hop(here, choose_turn(c.from, here, rng));
      } else if (here == c.dest || c.path_idx + 1 >= c.path.size() ||
                 next_blocked || rng.bernoulli(cfg_.replan_prob)) {
        plan_trip(c, here, rng);
      } else {
        c.from = here;
        ++c.path_idx;
        c.to = c.path[c.path_idx];
        c.along = 0.0;
      }
    }
    refresh_state(i);
  }
}

void GraphMobilityModel::refresh_state(std::size_t i) {
  const Car& c = cars_[i];
  const core::Vec2 pa = graph_->intersection_pos(c.from);
  const core::Vec2 pb = graph_->intersection_pos(c.to);
  const double len = graph_->segment_length(graph_->segment_between(c.from, c.to));
  const double u = std::clamp(c.along / len, 0.0, 1.0);
  VehicleState& s = states_[i];
  // Convex combination of the endpoints: the position cannot leave the edge.
  s.pos = pa + (pb - pa) * u;
  s.heading = (pb - pa).normalized();
  s.speed = c.speed;
  s.accel = 0.0;
}

int GraphMobilityModel::current_segment(VehicleId id) const {
  const Car& c = cars_.at(id);
  return graph_->segment_between(c.from, c.to);
}

void GraphMobilityModel::set_segment_blocked(int segment, bool blocked) {
  VANET_ASSERT_MSG(!turns_, "the turn rule reads no segment blocks");
  VANET_ASSERT_MSG(
      segment >= 0 &&
          static_cast<std::size_t>(segment) < graph_->segment_count(),
      "set_segment_blocked: unknown segment");
  if (blocked_.empty()) blocked_.assign(graph_->segment_count(), 0);
  char& slot = blocked_[static_cast<std::size_t>(segment)];
  if ((slot != 0) == blocked) return;
  slot = blocked ? 1 : 0;
  blocked_count_ += blocked ? 1 : -1;
}

bool GraphMobilityModel::segment_blocked(int segment) const {
  VANET_ASSERT_MSG(
      segment >= 0 &&
          static_cast<std::size_t>(segment) < graph_->segment_count(),
      "segment_blocked: unknown segment");
  return blocked_count_ > 0 &&
         blocked_[static_cast<std::size_t>(segment)] != 0;
}

int GraphMobilityModel::reported_segment(std::size_t i) const {
  const Car& c = cars_.at(i);
  const int seg = graph_->segment_between(c.from, c.to);
  // Near an endpoint the incident streets approach equidistance and the
  // nearest-segment tie-break may pick a lower id; decline rather than guess.
  if (c.along <= kEdgeMargin || c.along >= graph_->segment_length(seg) - kEdgeMargin) {
    return -1;
  }
  return seg;
}

}  // namespace vanet::mobility

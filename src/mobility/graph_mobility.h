// Graph-constrained mobility: vehicles drive on the edges of a map::RoadGraph
// (any graph the map subsystem builds, imported CSV maps included) and pick
// their next street at each intersection by one of two rules:
//
// - Trips (GraphMobilityConfig, mobility=graph): follow the length-shortest
//   path to a random destination intersection, draw a new one on arrival,
//   and re-plan with probability `replan_prob` at every intersection.
// - Turns (ManhattanConfig, mobility=manhattan), the urban model of the zone
//   / grid-gateway / CAR family (survey Sec. VI, VII): go straight, left or
//   right with `turn_prob_left/right` (straight gets the remainder); reverse
//   only where no other street leaves or the weights sum to 0. Traffic
//   lights are not modelled (documented simplification).
//
// Positions are exact convex combinations of the current edge's endpoints,
// so every vehicle is on a road segment at all times (property-tested by
// GraphMobility.VehiclesStayOnEdges), and routing-layer consumers of the
// same RoadGraph (CAR's anchor paths, the density oracle) reason about the
// roads the vehicles are actually on.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "map/road_graph.h"
#include "mobility/mobility_model.h"

namespace vanet::mobility {

struct GraphMobilityConfig {
  double speed_mean = 13.9;    ///< m/s (~50 km/h), drawn per vehicle
  double speed_stddev = 2.0;   ///< m/s; draws are floored at 2 m/s
  double replan_prob = 0.05;   ///< P(new destination) at each intersection
  double min_trip_m = 400.0;   ///< minimum bee-line length of a new trip
};

/// `manhattan.*` keys: the lattice sim::build_road_graph makes (streets_x,
/// streets_y, block), and the turn rule's speeds and turn weights.
struct ManhattanConfig {
  int streets_x = 5;        ///< number of vertical streets (constant-x lines)
  int streets_y = 5;        ///< number of horizontal streets (constant-y lines)
  double block = 200.0;     ///< street spacing, m (intersection (0,0) at origin)
  double speed_mean = 13.9; ///< m/s, ~50 km/h; per-vehicle normal draw
  double speed_stddev = 2.0;///< m/s; draws are floored at 2 m/s
  double turn_prob_left = 0.25;   ///< remainder after left+right goes straight
  double turn_prob_right = 0.25;
};

class GraphMobilityModel final : public MobilityModel {
 public:
  /// Trip rule. `graph` must have >= 2 intersections and no isolated ones;
  /// it is shared with the routing layer and must outlive the model.
  GraphMobilityModel(std::shared_ptr<const map::RoadGraph> graph,
                     GraphMobilityConfig cfg);
  /// Turn rule, with `cfg`'s speeds and turn weights (the graph is given).
  GraphMobilityModel(std::shared_ptr<const map::RoadGraph> graph,
                     const ManhattanConfig& cfg);

  /// Place `count` vehicles. Trips: at uniformly drawn intersections, with
  /// random trips. Turns: each at the tail of a uniformly drawn directed
  /// segment, heading along it.
  void populate(int count, core::Rng& rng);

  /// Spawn one vehicle at intersection `from` heading along the segment to
  /// its neighbour `to`; a trip car plans its first trip on reaching `to`.
  VehicleId add_vehicle(int from, int to, double speed);

  void step(double dt, core::Rng& rng) override;
  const std::vector<VehicleState>& vehicles() const override { return states_; }
  /// Driven segment when strictly inside it (see MobilityModel contract);
  /// -1 within kEdgeMargin of an endpoint, where nearest-segment ties with
  /// the other incident streets are possible.
  int reported_segment(std::size_t i) const override;

  const map::RoadGraph& graph() const { return *graph_; }
  /// Segment id vehicle `id` currently drives on (tests, diagnostics).
  int current_segment(VehicleId id) const;

  /// Block or clear a road segment (incident injection, sim::FaultPlan;
  /// trip rule only: the turn rule reads no blocks).
  /// Trip planning treats blocked segments as infinite cost, so new paths
  /// route around the incident; a vehicle already on the segment finishes
  /// traversing it (positions stay on-edge, the class invariant) and
  /// re-plans at the next intersection. When every street out of an
  /// intersection is blocked, the fallback hop drives through anyway rather
  /// than stranding the vehicle. With no segment blocked, planning and the
  /// per-step draw sequence are bit-identical to the fault-free model.
  void set_segment_blocked(int segment, bool blocked);
  bool segment_blocked(int segment) const;

 private:
  struct Car {
    int from = 0;              ///< intersection behind
    int to = 0;                ///< intersection ahead on the current segment
    double along = 0.0;        ///< metres travelled from `from` toward `to`
    int dest = 0;              ///< current trip destination intersection
    std::vector<int> path;     ///< `from` to `dest`; empty on a one-hop trip
    std::size_t path_idx = 0;  ///< index of `to` within `path`
    double speed = 13.9;       ///< m/s, constant per vehicle

    /// Start a one-hop trip from `a` to its neighbour `b`: on reaching `b`
    /// the car re-plans (trips) or turns (turn rule).
    void hop(int a, int b) {
      from = a;
      to = b;
      along = 0.0;
      dest = b;
      path.clear();
    }
  };

  /// Endpoint clearance below which reported_segment declines to answer.
  static constexpr double kEdgeMargin = 0.01;  ///< metres

  /// Turn rule: the intersection a car arriving at `here` from `from`
  /// drives to next.
  int choose_turn(int from, int here, core::Rng& rng) const;
  VehicleId add_car(Car c);
  /// Draw a destination reachable from `at` and install the path; falls back
  /// to a random neighbor hop when no distinct destination is reachable.
  void plan_trip(Car& c, int at, core::Rng& rng);
  /// Shortest path honouring blocked segments (plain by-length Dijkstra when
  /// nothing is blocked).
  std::vector<int> plan_path(int at, int dest) const;
  void refresh_state(std::size_t i);

  std::shared_ptr<const map::RoadGraph> graph_;
  GraphMobilityConfig cfg_;  ///< speeds, and the trip rule's knobs
  std::optional<ManhattanConfig> turns_;  ///< the turn rule's weights, if set
  std::vector<VehicleState> states_;
  std::vector<Car> cars_;
  /// Per-segment incident flags, sized lazily on first block; empty (and
  /// blocked_count_ == 0) on every fault-free run.
  std::vector<char> blocked_;
  int blocked_count_ = 0;
};

}  // namespace vanet::mobility

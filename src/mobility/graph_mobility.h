// Graph-constrained mobility: vehicles drive on the edges of a map::RoadGraph.
//
// Each vehicle runs random trips over the shared road graph: pick a
// destination intersection, follow the length-shortest path toward it, pick a
// new destination on arrival. At every intersection along the way the driver
// re-plans with probability `replan_prob` (a fresh destination and path),
// which produces the direction churn urban protocols must cope with —
// without ever leaving the graph. Positions are exact convex combinations of
// the current edge's endpoints, so every vehicle is on a road segment at all
// times (property-tested by GraphMobility.VehiclesStayOnEdges); routing-layer
// consumers of the same RoadGraph (CAR's anchor paths, the density oracle)
// therefore reason about roads the vehicles are actually on.
//
// Unlike ManhattanGridModel — which synthesizes its own lattice geometry —
// this model works on any graph the map subsystem can build, including
// edge-list CSV imports of real road networks (map/builders.h).
#pragma once

#include <memory>
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

class GraphMobilityModel final : public MobilityModel {
 public:
  /// `graph` must have >= 2 intersections and no isolated ones; it is shared
  /// with the routing layer and must outlive the model.
  GraphMobilityModel(std::shared_ptr<const map::RoadGraph> graph,
                     GraphMobilityConfig cfg);

  /// Place `count` vehicles at random intersections with random trips.
  void populate(int count, core::Rng& rng);

  /// Spawn one vehicle at intersection `at` with the given speed; the first
  /// trip destination is drawn from `rng`.
  VehicleId add_vehicle(int at, double speed, core::Rng& rng);

  void step(double dt, core::Rng& rng) override;
  const std::vector<VehicleState>& vehicles() const override { return states_; }
  /// Driven segment when strictly inside it (see MobilityModel contract);
  /// -1 within kEdgeMargin of an endpoint, where nearest-segment ties with
  /// the other incident streets are possible.
  int reported_segment(std::size_t i) const override;

  const map::RoadGraph& graph() const { return *graph_; }
  /// Segment id vehicle `id` currently drives on (tests, diagnostics).
  int current_segment(VehicleId id) const;

  /// Block or clear a road segment (incident injection, sim::FaultPlan).
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
    std::vector<int> path;     ///< intersections from `from` to `dest`
    std::size_t path_idx = 0;  ///< index of `to` within `path`
    double speed = 13.9;       ///< m/s, constant per vehicle
  };

  /// Endpoint clearance below which reported_segment declines to answer.
  static constexpr double kEdgeMargin = 0.01;  ///< metres

  /// Draw a destination reachable from `at` and install the path; falls back
  /// to a random neighbor hop when no distinct destination is reachable.
  void plan_trip(Car& c, int at, core::Rng& rng);
  /// Shortest path honouring blocked segments (plain by-length Dijkstra when
  /// nothing is blocked).
  std::vector<int> plan_path(int at, int dest) const;
  void refresh_state(std::size_t i);

  std::shared_ptr<const map::RoadGraph> graph_;
  GraphMobilityConfig cfg_;
  std::vector<VehicleState> states_;
  std::vector<Car> cars_;
  /// Per-segment incident flags, sized lazily on first block; empty (and
  /// blocked_count_ == 0) on every fault-free run.
  std::vector<char> blocked_;
  int blocked_count_ = 0;
};

}  // namespace vanet::mobility

// Scenario assembly: mobility + radio + protocol + traffic in one object.
//
// A Scenario owns the whole simulation for one run. Configurations are
// plain data so benches can sweep them; the same seed always reproduces the
// same run bit-for-bit.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/simulator.h"
#include "mobility/graph_mobility.h"
#include "mobility/idm_highway.h"
#include "mobility/manhattan_grid.h"
#include "mobility/mobility_manager.h"
#include "mobility/trace.h"
#include "sim/fault_plan.h"
#include "sim/node_stack.h"

namespace vanet::sim {

enum class MobilityKind { kHighway, kManhattan, kTrace, kGraph };

/// Radio model (`phy.model` key): deterministic unit disk, log-normal
/// shadowing (slow fading), or Nakagami-m (fast fading) — see net/fading.h.
enum class PhyModel { kUnitDisk, kShadowing, kNakagami };

/// Where the scenario's road topology (map::RoadGraph) comes from.
enum class MapSource {
  kGrid,  ///< generated: Manhattan lattice (or highway line) from the config
  kFile,  ///< imported: edge-list CSV via map/builders.h
};

struct MapSpec {
  MapSource source = MapSource::kGrid;
  /// Edge-list CSV path, loaded at scenario construction (source=kFile only).
  /// A file map requires kGraph or kTrace mobility — the synthetic highway /
  /// Manhattan models generate their own geometry and would diverge from it.
  std::string file;
  /// Trace↔map coupling guard: with trace mobility over a file map, every
  /// trace sample must lie within this distance of some road segment, or the
  /// scenario throws naming the offending vehicle/sample (and CSV line when
  /// the trace was loaded from one). <= 0 disables the check. Ignores
  /// generated maps — those are built to the mobility config, not vice versa.
  double trace_tolerance_m = 25.0;
};

struct ScenarioConfig {
  std::uint64_t seed = 1;
  double duration_s = 60.0;
  double mobility_tick_s = 0.1;

  MapSpec map;                      ///< road topology source (see src/map/)
  MobilityKind mobility = MobilityKind::kHighway;
  mobility::HighwayConfig highway;
  int vehicles_per_direction = 40;  ///< highway population (per direction)
  mobility::ManhattanConfig manhattan;
  int vehicles = 80;                ///< Manhattan / graph-mobility population
  /// kGraph: trip-based driving on the shared road graph (graph_mobility.h).
  mobility::GraphMobilityConfig graph;
  /// kTrace: played-back mobility (SUMO-like CSV; see mobility/trace.h).
  /// Vehicle ids must be dense 0..N-1 — renumber on conversion if needed.
  mobility::Trace trace;

  double comm_range_m = 250.0;      ///< unit-disk range
  /// Radio model (`phy.model`; `vanet_cli --shadowing` sets kShadowing).
  PhyModel phy = PhyModel::kUnitDisk;
  int nakagami_m = 3;               ///< Nakagami shape (phy.model=nakagami)
  analysis::LogNormalParams signal; ///< shadowing/fading params (and REAR model)
  net::NetworkConfig net;

  /// Deterministic fault injection (`fault.*` keys; sim/fault_plan.h). With
  /// enabled=false nothing is constructed: no "fault" RNG stream, no events,
  /// runs bit-identical to a fault-free build.
  FaultConfig fault;

  int rsu_count = 0;                ///< evenly placed roadside units
  int bus_count = 0;                ///< vehicles designated as message ferries

  std::string protocol = "aodv";
  net::HelloConfig hello;
  int yan_tickets = 4;
  double car_cell_m = 500.0;        ///< road-graph granularity for CAR
  bool sample_reachability = true;  ///< 1 Hz src-dst connectivity oracle
  // Geometry backend of the road-geometry protocols (`zone.geometry` etc.,
  // values line|route — see routing::GeometryMode).
  routing::GeometryMode zone_geometry = routing::GeometryMode::kLine;
  routing::GeometryMode grid_geometry = routing::GeometryMode::kLine;
  routing::GeometryMode gvgrid_geometry = routing::GeometryMode::kLine;

  /// Link-quality estimator knobs (`etx.*` keys), shared by the `etx`
  /// protocol and ETX-ordered flood suppression (`flood.suppression=etx`,
  /// applied to the flooding + biswas protocols).
  routing::EtxConfig etx;
  routing::FloodSuppression flood_suppression = routing::FloodSuppression::kNone;

  TrafficConfig traffic;
};

/// Fault-injection results of a run with `fault.enabled=true`.
struct FaultReport {
  std::uint64_t faulted_originated = 0;  ///< sent while a fault was active
  std::uint64_t faulted_delivered = 0;   ///< of those, delivered
  double pdr_under_fault = 0.0;
  std::uint64_t node_outages = 0;
  std::uint64_t node_restarts = 0;
  std::uint64_t segment_blocks = 0;
  std::uint64_t frames_dropped_down = 0;
  double recovery_latency_mean_s = 0.0;  ///< restart -> first decoded frame
};

/// Link-quality family results of a run with protocol=etx or a
/// flood.suppression mode active.
struct LinkQualityReport {
  double etx_link_error_mean = 0.0;     ///< mean |estimated - analytic| ETX
  std::uint64_t etx_link_samples = 0;   ///< links sampled for the error stat
  std::uint64_t suppressed_rebroadcasts = 0;
};

/// Aggregated result of one run.
struct ScenarioReport {
  std::string protocol;
  double pdr = 0.0;
  double delay_ms_mean = 0.0;
  double delay_ms_p95_hint = 0.0;  ///< mean + 2 sd (normal approx)
  double hops_mean = 0.0;
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t control_frames = 0;
  std::uint64_t hello_frames = 0;
  std::uint64_t data_frames = 0;
  std::uint64_t backbone_frames = 0;
  std::uint64_t receptions_ok = 0;     ///< successfully decoded frames (dup load)
  double control_per_delivered = 0.0;  ///< (control + hello) / delivered
  double collision_fraction = 0.0;     ///< collided / attempted receptions
  /// Fraction of (flow, second) samples whose endpoints were physically
  /// connectable through the range-disk graph (+ backbone) — the oracle
  /// upper bound on PDR. 0 when sampling is disabled.
  double reachable_fraction = 0.0;
  std::uint64_t route_breaks = 0;
  std::uint64_t discoveries = 0;
  std::uint64_t preemptive_rebuilds = 0;
  double predicted_lifetime_mean_s = 0.0;
  double observed_lifetime_mean_s = 0.0;

  /// Optional sections: each is present only when its layer ran, and only a
  /// present section is appended to the canonical string (and hence the
  /// digest), so runs without it keep their historical digests.
  std::optional<FaultReport> fault;
  std::optional<LinkQualityReport> linkquality;
};

/// Canonical, lossless textual form of a report: every field on one
/// `name=value` line, doubles rendered as hexfloats so two reports compare
/// byte-identically iff they are bit-identical.
std::string canonical_report_string(const ScenarioReport& r);

/// 64-bit FNV-1a digest of canonical_report_string(), as 16 lowercase hex
/// chars. The determinism golden test and the throughput bench use this to
/// prove perf refactors leave the physics untouched.
std::string report_digest(const ScenarioReport& r);

/// The first two construction stages, public so benches can time them
/// standalone: the road topology, and the populated mobility model (drawing
/// from `rngs`' "mobility-init" stream).
std::shared_ptr<map::RoadGraph> build_road_graph(const ScenarioConfig& cfg);
std::unique_ptr<mobility::MobilityModel> make_mobility_model(
    const ScenarioConfig& cfg, const std::shared_ptr<map::RoadGraph>& graph,
    core::RngManager& rngs, mobility::GraphMobilityModel** graph_model_out);

/// One run. The Scenario owns the shared world (map, mobility, ferries,
/// density and reachability oracles, fault plan), the event loop and the
/// NodeStack that simulates the nodes on it (see sim/node_stack.h).
class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);
  ~Scenario();

  /// Run the full configured duration (idempotent; runs once).
  void run();

  ScenarioReport report() const;

  /// Always false; perfbench/bench_workloads.cpp is the only caller, and
  /// the next change to that benchmark deletes both the call and this.
  bool is_sharded() const { return false; }
  /// Events dispatched by the run's event loop, and its scheduler
  /// allocation telemetry.
  std::uint64_t events_dispatched() const { return sim_.events_dispatched(); }
  const core::EventQueue::AllocStats& scheduler_stats() const {
    return sim_.scheduler_stats();
  }
  /// The per-node half of the run: network, hello, protocols, traffic,
  /// collectors and caches.
  const NodeStack& stack() const { return *stack_; }

  core::Simulator& simulator() { return sim_; }
  mobility::MobilityManager& mobility() { return *mobility_; }
  net::Network& network() { return *stack_->net; }
  net::HelloService* hello() { return stack_->hello.get(); }
  Metrics& metrics() { return stack_->metrics; }
  routing::ProtocolEvents& events() { return stack_->events; }
  const CbrTraffic& traffic() const { return *stack_->traffic; }
  /// Node `id`'s protocol instance.
  routing::RoutingProtocol& protocol_at(net::NodeId id) {
    return *stack_->protocols.at(id);
  }
  const ScenarioConfig& config() const { return cfg_; }
  /// Null unless `fault.enabled=true`.
  FaultPlan* fault_plan() { return fault_plan_.get(); }
  /// Null unless the scenario uses graph mobility.
  mobility::GraphMobilityModel* graph_model() { return graph_model_; }
  std::size_t vehicle_count() const { return vehicle_count_; }
  /// The shared road topology (mobility + routing both reference it).
  const map::RoadGraph& road_graph() const { return *road_graph_; }

 private:
  void update_density();
  void schedule_density_updates();
  void sample_reachability();

  ScenarioConfig cfg_;
  core::Simulator sim_;
  core::RngManager rngs_;
  std::shared_ptr<map::RoadGraph> road_graph_;
  std::unique_ptr<map::SegmentIndex> segment_index_;
  std::unique_ptr<mobility::MobilityManager> mobility_;
  /// Borrowed view of the mobility model when it is graph-based (the manager
  /// owns it); the fault plan drives segment blocks through it.
  mobility::GraphMobilityModel* graph_model_ = nullptr;
  std::size_t vehicle_count_ = 0;
  std::shared_ptr<routing::FerrySet> ferries_;
  std::shared_ptr<map::SegmentDensityOracle> density_;
  /// Segments whose interiors cannot prove nearest-segment identity; only
  /// populated under graph mobility, whose density refresh is incremental.
  std::vector<bool> segment_ambiguous_;
  /// Never moves once built: its handlers capture its address.
  std::optional<NodeStack> stack_;
  std::unique_ptr<FaultPlan> fault_plan_;
  std::uint64_t reachable_samples_ = 0;
  std::uint64_t total_samples_ = 0;
  bool ran_ = false;
};

}  // namespace vanet::sim

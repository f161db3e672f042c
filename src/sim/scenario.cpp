#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/assert.h"
#include "map/builders.h"

namespace vanet::sim {

namespace {

void append_field(std::string& out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  out += name;
  out += '=';
  out += buf;
  out += '\n';
}

void append_field(std::string& out, const char* name, std::uint64_t v) {
  out += name;
  out += '=';
  out += std::to_string(v);
  out += '\n';
}

void validate_trace_against_map(const ScenarioConfig& cfg,
                                const map::RoadGraph& graph,
                                const map::SegmentIndex& index) {
  const double tol = cfg.map.trace_tolerance_m;
  if (tol <= 0.0) return;
  for (const auto& [id, samples] : cfg.trace.samples()) {
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const mobility::TraceSample& s = samples[i];
      const core::Vec2 pos{s.x, s.y};
      const int seg = index.nearest_segment(pos);
      const auto [a, b] = graph.segment_ends(seg);
      const double d = core::distance_to_segment(pos, graph.intersection_pos(a),
                                                 graph.intersection_pos(b));
      if (d <= tol) continue;
      // Same line-numbered style as the CSV importers, so a replayed real
      // trace and an imported map cannot silently disagree.
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "trace<->map: vehicle %u sample %zu%s%s (t=%gs) at "
                    "(%.1f, %.1f) is %.1f m from the nearest road segment "
                    "(map.trace_tolerance_m=%g; nearest segment %d)",
                    static_cast<unsigned>(id), i,
                    s.line > 0 ? ", trace csv line " : "",
                    s.line > 0 ? std::to_string(s.line).c_str() : "", s.t,
                    s.x, s.y, d, tol, seg);
      throw std::invalid_argument(buf);
    }
  }
}

/// The protocol-independent report core from the stack's collectors.
/// report() adds the fault block on top.
ScenarioReport assemble_report(const ScenarioConfig& cfg,
                               const Metrics& metrics,
                               const net::NetCounters& c,
                               const routing::ProtocolEvents& events,
                               std::uint64_t reachable_samples,
                               std::uint64_t total_samples) {
  ScenarioReport r;
  r.protocol = cfg.protocol;
  r.pdr = metrics.pdr();
  r.delay_ms_mean = metrics.delay_ms().mean();
  r.delay_ms_p95_hint =
      metrics.delay_ms().mean() + 2.0 * metrics.delay_ms().stddev();
  r.hops_mean = metrics.hops().mean();
  r.originated = metrics.originated();
  r.delivered = metrics.delivered();
  r.control_frames = c.control_frames_sent;
  r.hello_frames = c.hello_frames_sent;
  r.data_frames = c.data_frames_sent;
  r.backbone_frames = c.backbone_frames;
  r.receptions_ok = c.receptions_ok;
  r.control_per_delivered =
      r.delivered > 0 ? static_cast<double>(r.control_frames + r.hello_frames) /
                            static_cast<double>(r.delivered)
                      : static_cast<double>(r.control_frames + r.hello_frames);
  const std::uint64_t attempted =
      c.receptions_ok + c.receptions_collided + c.receptions_faded;
  r.collision_fraction =
      attempted > 0
          ? static_cast<double>(c.receptions_collided) /
                static_cast<double>(attempted)
          : 0.0;
  r.reachable_fraction =
      total_samples > 0 ? static_cast<double>(reachable_samples) /
                              static_cast<double>(total_samples)
                        : 0.0;
  r.route_breaks = events.route_breaks;
  r.discoveries = events.discoveries_started;
  r.preemptive_rebuilds = events.preemptive_rebuilds;
  r.predicted_lifetime_mean_s = events.predicted_route_lifetime.mean();
  r.observed_lifetime_mean_s = events.observed_route_lifetime.mean();
  if (cfg.protocol == "etx" ||
      cfg.flood_suppression != routing::FloodSuppression::kNone) {
    r.linkquality = LinkQualityReport{events.etx_link_abs_error.mean(),
                                      events.etx_link_abs_error.count(),
                                      events.suppressed_rebroadcasts};
  }
  return r;
}

}  // namespace

std::string canonical_report_string(const ScenarioReport& r) {
  std::string out;
  out += "protocol=" + r.protocol + "\n";
  append_field(out, "pdr", r.pdr);
  append_field(out, "delay_ms_mean", r.delay_ms_mean);
  append_field(out, "delay_ms_p95_hint", r.delay_ms_p95_hint);
  append_field(out, "hops_mean", r.hops_mean);
  append_field(out, "originated", r.originated);
  append_field(out, "delivered", r.delivered);
  append_field(out, "control_frames", r.control_frames);
  append_field(out, "hello_frames", r.hello_frames);
  append_field(out, "data_frames", r.data_frames);
  append_field(out, "backbone_frames", r.backbone_frames);
  append_field(out, "receptions_ok", r.receptions_ok);
  append_field(out, "control_per_delivered", r.control_per_delivered);
  append_field(out, "collision_fraction", r.collision_fraction);
  append_field(out, "reachable_fraction", r.reachable_fraction);
  append_field(out, "route_breaks", r.route_breaks);
  append_field(out, "discoveries", r.discoveries);
  append_field(out, "preemptive_rebuilds", r.preemptive_rebuilds);
  append_field(out, "predicted_lifetime_mean_s", r.predicted_lifetime_mean_s);
  append_field(out, "observed_lifetime_mean_s", r.observed_lifetime_mean_s);
  // Optional sections only exist in the canonical form of runs that produced
  // them: a report without one serializes byte-identically to a build that
  // predates it, which is what keeps the historical golden digests valid.
  if (const auto& f = r.fault) {
    append_field(out, "faulted_originated", f->faulted_originated);
    append_field(out, "faulted_delivered", f->faulted_delivered);
    append_field(out, "pdr_under_fault", f->pdr_under_fault);
    append_field(out, "node_outages", f->node_outages);
    append_field(out, "node_restarts", f->node_restarts);
    append_field(out, "segment_blocks", f->segment_blocks);
    append_field(out, "frames_dropped_down", f->frames_dropped_down);
    append_field(out, "recovery_latency_mean_s", f->recovery_latency_mean_s);
  }
  if (const auto& lq = r.linkquality) {
    append_field(out, "etx_link_error_mean", lq->etx_link_error_mean);
    append_field(out, "etx_link_samples", lq->etx_link_samples);
    append_field(out, "suppressed_rebroadcasts", lq->suppressed_rebroadcasts);
  }
  return out;
}

std::string report_digest(const ScenarioReport& r) {
  const std::string canonical = canonical_report_string(r);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return std::string{buf};
}

std::shared_ptr<map::RoadGraph> build_road_graph(const ScenarioConfig& cfg) {
  if (cfg.map.source == MapSource::kFile) {
    if (cfg.mobility != MobilityKind::kGraph &&
        cfg.mobility != MobilityKind::kTrace) {
      throw std::invalid_argument(
          "map.source=file requires graph or trace mobility — the highway / "
          "manhattan models synthesize their own geometry and would not "
          "drive on the imported map");
    }
    if (cfg.map.file.empty()) {
      throw std::invalid_argument("map.source=file requires map.file=PATH");
    }
    return std::make_shared<map::RoadGraph>(
        map::load_edge_list_csv_file(cfg.map.file));
  }
  if (cfg.mobility == MobilityKind::kManhattan ||
      cfg.mobility == MobilityKind::kGraph) {
    // Urban lattice; kGraph shares the Manhattan dimensions so the two urban
    // models are directly comparable on the same topology.
    return std::make_shared<map::RoadGraph>(
        cfg.manhattan.streets_x, cfg.manhattan.streets_y, cfg.manhattan.block);
  }
  // Highway (and highway-like trace) scenarios: a 1-D line of car_cell_m
  // cells, the granularity CAR scores connectivity over.
  const int nx = std::max(
      2,
      static_cast<int>(std::lround(cfg.highway.length / cfg.car_cell_m)) + 1);
  return std::make_shared<map::RoadGraph>(nx, 1,
                                          cfg.highway.length / (nx - 1));
}

std::unique_ptr<mobility::MobilityModel> make_mobility_model(
    const ScenarioConfig& cfg, const std::shared_ptr<map::RoadGraph>& graph,
    core::RngManager& rngs, mobility::GraphMobilityModel** graph_model_out) {
  if (graph_model_out != nullptr) *graph_model_out = nullptr;
  std::unique_ptr<mobility::MobilityModel> model;
  if (cfg.mobility == MobilityKind::kHighway) {
    auto highway = std::make_unique<mobility::IdmHighwayModel>(cfg.highway);
    highway->populate(cfg.vehicles_per_direction,
                      rngs.stream("mobility-init"));
    model = std::move(highway);
  } else if (cfg.mobility == MobilityKind::kManhattan) {
    auto grid = std::make_unique<mobility::ManhattanGridModel>(cfg.manhattan);
    grid->populate(cfg.vehicles, rngs.stream("mobility-init"));
    model = std::move(grid);
  } else if (cfg.mobility == MobilityKind::kGraph) {
    auto graph_model =
        std::make_unique<mobility::GraphMobilityModel>(graph, cfg.graph);
    graph_model->populate(cfg.vehicles, rngs.stream("mobility-init"));
    if (graph_model_out != nullptr) *graph_model_out = graph_model.get();
    model = std::move(graph_model);
  } else {
    auto playback = std::make_unique<mobility::TracePlaybackModel>(cfg.trace);
    // Node ids mirror vehicle ids, so the trace must use dense ids.
    const auto& vs = playback->vehicles();
    for (std::size_t i = 0; i < vs.size(); ++i) {
      VANET_ASSERT_MSG(vs[i].id == i, "trace vehicle ids must be dense 0..N-1");
    }
    model = std::move(playback);
  }
  return model;
}

Scenario::Scenario(ScenarioConfig cfg) : cfg_{std::move(cfg)}, rngs_{cfg_.seed} {
  road_graph_ = build_road_graph(cfg_);
  segment_index_ = std::make_unique<map::SegmentIndex>(*road_graph_);
  if (cfg_.mobility == MobilityKind::kTrace &&
      cfg_.map.source == MapSource::kFile) {
    validate_trace_against_map(cfg_, *road_graph_, *segment_index_);
  }
  std::unique_ptr<mobility::MobilityModel> model =
      make_mobility_model(cfg_, road_graph_, rngs_, &graph_model_);
  vehicle_count_ = model->vehicles().size();
  VANET_ASSERT_MSG(vehicle_count_ >= 2, "scenario needs at least two vehicles");
  mobility_ = std::make_unique<mobility::MobilityManager>(
      sim_, std::move(model), rngs_.stream("mobility"),
      core::SimTime::seconds(cfg_.mobility_tick_s));

  // Ferry designation: spread bus ids evenly over the vehicle id space.
  ferries_ = std::make_shared<routing::FerrySet>();
  if (cfg_.bus_count > 0) {
    const std::size_t stride =
        std::max<std::size_t>(1, vehicle_count_ / cfg_.bus_count);
    for (std::size_t k = 0; k < static_cast<std::size_t>(cfg_.bus_count) &&
                            k * stride < vehicle_count_;
         ++k) {
      ferries_->insert(static_cast<net::NodeId>(k * stride));
    }
  }
  density_ =
      std::make_shared<map::SegmentDensityOracle>(road_graph_->segment_count());

  routing::ProtocolDeps deps;
  deps.signal = cfg_.signal;
  deps.road_graph = road_graph_;
  deps.density = density_;
  deps.ferries = ferries_;
  deps.yan_tickets = cfg_.yan_tickets;
  deps.zone_geometry = cfg_.zone_geometry;
  deps.grid_geometry = cfg_.grid_geometry;
  deps.gvgrid_geometry = cfg_.gvgrid_geometry;
  deps.etx = cfg_.etx;
  deps.flood_suppression = cfg_.flood_suppression;
  const SharedWorld world{cfg_, std::move(deps), *segment_index_, *mobility_,
                          vehicle_count_};
  stack_.emplace(world, sim_, rngs_);

  // Incremental density refresh: graph mobility proves per-vehicle segments
  // at tick time, so the 1 Hz refresh only queries the SegmentIndex for
  // vehicles the model cannot vouch for (near intersections, or on segments
  // whose interiors are geometrically ambiguous — none on lattices).
  if (graph_model_ != nullptr) {
    segment_ambiguous_ = map::ambiguous_interior_segments(*road_graph_);
    // Graph mobility proves driven segments (MobilityModel::reported_segment)
    // for positions it produced this tick; declining on any position mismatch
    // keeps the prover safe against non-current (stamped or extrapolated)
    // positions a protocol might feed the snapshot.
    stack_->seg_snapshot->set_prover(
        [this](std::uint32_t id, core::Vec2 pos) -> int {
          const std::size_t i = mobility_->model_index(id);
          if (i == mobility::MobilityManager::npos) return -1;
          if (mobility_->vehicles()[i].pos != pos) return -1;
          int seg = mobility_->model().reported_segment(i);
          if (seg >= 0 && segment_ambiguous_[static_cast<std::size_t>(seg)]) {
            seg = -1;
          }
          return seg;
        });
  }
  schedule_density_updates();

  // Disabled means *nothing* happens: the "fault" stream is never derived,
  // no event is scheduled and metrics keep their lean path — provably
  // bit-identical to a build without the fault subsystem.
  if (cfg_.fault.enabled) {
    fault_plan_ = std::make_unique<FaultPlan>(
        sim_, *stack_->net, graph_model_, rngs_.stream("fault"), cfg_.fault,
        cfg_.duration_s);
    stack_->metrics.set_fault_tracking(true);
  }
}

Scenario::~Scenario() = default;

void Scenario::update_density() {
  std::vector<double> counts(road_graph_->segment_count(), 0.0);
  map::SegmentSnapshot& snapshot = *stack_->seg_snapshot;
  for (const mobility::VehicleState& v : mobility_->vehicles()) {
    // Graph mobility: through the stack's snapshot, whose prover is
    // the proven reported_segment + ambiguity mask and whose fallback is the
    // same index query — digest-identical — and which warms the per-node
    // entries the route-geometry protocols read. Other mobility models
    // prove nothing, so they query the index directly; it returns exactly
    // RoadGraph::segment_of_position(pos) — see map/segment_index.h —
    // without the O(segments) scan per vehicle.
    const int seg = graph_model_ != nullptr
                        ? snapshot.segment_of(v.id, v.pos)
                        : segment_index_->nearest_segment(v.pos);
    counts[static_cast<std::size_t>(seg)] += 1.0;
  }
  for (std::size_t s = 0; s < counts.size(); ++s) {
    density_->set_count(static_cast<int>(s), counts[s]);
  }
}

void Scenario::schedule_density_updates() {
  // Refresh per-segment vehicle counts once per second (ground-truth
  // stand-in for CAR's statistics dissemination; see map/road_graph.h).
  update_density();
  sim_.schedule(core::SimTime::seconds(1.0),
                [this] { schedule_density_updates(); });
}

void Scenario::sample_reachability() {
  const NodeStack& stack = *stack_;
  const auto& flows = stack.traffic->flows();
  if (!flows.empty()) {
    // One component labeling answers every flow at this instant; running a
    // BFS per flow re-derived the same adjacency per pair.
    const std::vector<std::uint32_t> labels =
        stack.net->reachability_components(stack.net->nominal_range());
    for (const auto& flow : flows) {
      ++total_samples_;
      if (labels[flow.src] == labels[flow.dst]) ++reachable_samples_;
    }
  }
  sim_.schedule(core::SimTime::seconds(1.0), [this] { sample_reachability(); });
}

void Scenario::run() {
  if (ran_) return;
  ran_ = true;
  mobility_->start();
  stack_->start();
  if (fault_plan_) fault_plan_->start();
  if (cfg_.sample_reachability) {
    // Sample over the traffic window only (flows exist after start()).
    sim_.schedule(core::SimTime::seconds(cfg_.traffic.start_s),
                  [this] { sample_reachability(); });
  }
  sim_.run_until(core::SimTime::seconds(cfg_.duration_s));
}

ScenarioReport Scenario::report() const {
  const NodeStack& stack = *stack_;
  ScenarioReport r =
      assemble_report(cfg_, stack.metrics, stack.net->counters(), stack.events,
                      reachable_samples_, total_samples_);
  if (fault_plan_) {
    FaultReport& f = r.fault.emplace();
    // Classify both sides of the delivery ledger by *send* time against the
    // completed fault timeline (see Metrics::set_fault_tracking).
    for (const core::SimTime t : stack.metrics.origination_times()) {
      if (fault_plan_->fault_active_at(t)) ++f.faulted_originated;
    }
    for (const core::SimTime t : stack.metrics.first_delivery_sent_times()) {
      if (fault_plan_->fault_active_at(t)) ++f.faulted_delivered;
    }
    f.pdr_under_fault =
        f.faulted_originated > 0
            ? static_cast<double>(f.faulted_delivered) /
                  static_cast<double>(f.faulted_originated)
            : 0.0;
    const FaultCounters& fc = fault_plan_->counters();
    f.node_outages = fc.node_outages;
    f.node_restarts = fc.node_restarts;
    f.segment_blocks = fc.segment_blocks;
    f.frames_dropped_down = stack.net->counters().frames_dropped_down;
    f.recovery_latency_mean_s = stack.net->recovery_latency().mean();
  }
  return r;
}

}  // namespace vanet::sim

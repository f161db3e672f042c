#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "map/builders.h"
#include "net/fading.h"
#include "sim/config_kv.h"

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

std::unique_ptr<net::PropagationModel> make_propagation(
    const ScenarioConfig& cfg) {
  switch (cfg.phy) {
    case PhyModel::kShadowing:
      return std::make_unique<net::LogNormalShadowingModel>(cfg.signal);
    case PhyModel::kNakagami:
      return std::make_unique<net::NakagamiFadingModel>(cfg.signal,
                                                        cfg.nakagami_m);
    case PhyModel::kUnitDisk:
      break;
  }
  return std::make_unique<net::UnitDiskModel>(cfg.comm_range_m);
}

/// Places cfg.rsu_count RSUs evenly over the deployment area and wires them
/// into the backbone.
void add_rsus(const ScenarioConfig& cfg, const map::RoadGraph& graph,
              net::Network& net) {
  if (cfg.mobility == MobilityKind::kHighway) {
    const double spacing = cfg.highway.length / cfg.rsu_count;
    for (int k = 0; k < cfg.rsu_count; ++k) {
      // On the median between the carriageways.
      net.add_rsu({(k + 0.5) * spacing, -cfg.highway.median_gap / 2.0});
    }
  } else {
    // Scenarios with a real map (graph mobility, or any imported file map —
    // including trace playback over one) cover the map's extent, which need
    // not start at the origin; Manhattan (whose lattice it is) and trace
    // playback on a generated map use the configured lattice dimensions.
    double x0 = 0.0, y0 = 0.0;
    double w = (cfg.manhattan.streets_x - 1) * cfg.manhattan.block;
    double h = (cfg.manhattan.streets_y - 1) * cfg.manhattan.block;
    if (cfg.mobility == MobilityKind::kGraph ||
        cfg.map.source == MapSource::kFile) {
      x0 = graph.bbox_min().x;
      y0 = graph.bbox_min().y;
      w = graph.bbox_max().x - x0;
      h = graph.bbox_max().y - y0;
    }
    const int per_side = std::max(
        1, static_cast<int>(std::lround(std::sqrt(cfg.rsu_count))));
    int placed = 0;
    for (int i = 0; i < per_side && placed < cfg.rsu_count; ++i) {
      for (int j = 0; j < per_side && placed < cfg.rsu_count; ++j) {
        const double x = per_side == 1 ? w / 2.0 : i * w / (per_side - 1);
        const double y = per_side == 1 ? h / 2.0 : j * h / (per_side - 1);
        net.add_rsu({x0 + x, y0 + y});
        ++placed;
      }
    }
  }
  net.connect_backbone();
}

/// The protocol-independent report core from the scenario's collectors.
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

std::string canonical_digest(std::string_view canonical) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return std::string{buf};
}

std::string report_digest(const ScenarioReport& r) {
  return canonical_digest(canonical_report_string(r));
}

bool uses_route_geometry(GeometryMode geometry, const map::RoadGraph& graph) {
  return geometry == GeometryMode::kRoute && !graph.is_grid();
}

std::shared_ptr<map::RoadGraph> build_road_graph(const ScenarioConfig& cfg) {
  if (cfg.map.source == MapSource::kFile) {
    try {
      return std::make_shared<map::RoadGraph>(
          map::load_edge_list_csv_file(cfg.map.file));
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("map.file '" + cfg.map.file + "': " + e.what());
    }
  }
  if (cfg.mobility == MobilityKind::kManhattan ||
      cfg.mobility == MobilityKind::kGraph) {
    // Urban lattice from the manhattan.* dimensions; the turn rule and the
    // trip rule drive the same topology.
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
  } else if (cfg.mobility == MobilityKind::kManhattan ||
             cfg.mobility == MobilityKind::kGraph) {
    auto graph_model =
        cfg.mobility == MobilityKind::kManhattan
            ? std::make_unique<mobility::GraphMobilityModel>(graph,
                                                             cfg.manhattan)
            : std::make_unique<mobility::GraphMobilityModel>(graph, cfg.graph);
    graph_model->populate(cfg.vehicles, rngs.stream("mobility-init"));
    if (graph_model_out != nullptr) *graph_model_out = graph_model.get();
    model = std::move(graph_model);
  } else {
    model = std::make_unique<mobility::TracePlaybackModel>(cfg.trace);
  }
  return model;
}

Scenario::Scenario(ScenarioConfig cfg) : cfg_{std::move(cfg)}, rngs_{cfg_.seed} {
  validate_config(cfg_);
  road_graph_ = build_road_graph(cfg_);
  segment_index_ = std::make_unique<map::SegmentIndex>(*road_graph_);
  if (cfg_.mobility == MobilityKind::kTrace &&
      cfg_.map.source == MapSource::kFile) {
    validate_trace_against_map(cfg_, *road_graph_, *segment_index_);
  }
  std::unique_ptr<mobility::MobilityModel> model =
      make_mobility_model(cfg_, road_graph_, rngs_, &graph_model_);
  vehicle_count_ = model->vehicles().size();
  mobility_ = std::make_unique<mobility::MobilityManager>(
      sim_, std::move(model), rngs_.stream("mobility"),
      core::SimTime::seconds(cfg_.mobility_tick_s));

  // Ferry designation: spread bus ids evenly over the vehicle id space.
  if (cfg_.bus_count > 0) {
    const std::size_t stride =
        std::max<std::size_t>(1, vehicle_count_ / cfg_.bus_count);
    for (std::size_t k = 0; k < static_cast<std::size_t>(cfg_.bus_count) &&
                            k * stride < vehicle_count_;
         ++k) {
      ferries_.insert(static_cast<net::NodeId>(k * stride));
    }
  }
  density_ =
      std::make_unique<map::SegmentDensityOracle>(road_graph_->segment_count());

  routing::ProtocolDeps deps;
  deps.signal = cfg_.signal;
  deps.yan_tickets = cfg_.yan_tickets;
  deps.flood_suppression = cfg_.flood_suppression;

  // The nodes, drawing from the "net", "hello", "proto" and "traffic"
  // streams in that order.
  net_ = std::make_unique<net::Network>(
      sim_, mobility_.get(), make_propagation(cfg_), rngs_.stream("net"),
      cfg_.net, core::Box{road_graph_->bbox_min(), road_graph_->bbox_max()});
  for (std::size_t v = 0; v < vehicle_count_; ++v) {
    net_->add_vehicle_node(static_cast<mobility::VehicleId>(v));
  }
  if (cfg_.rsu_count > 0) add_rsus(cfg_, *road_graph_, *net_);

  seg_snapshot_ = std::make_unique<map::SegmentSnapshot>(*segment_index_);

  protocols_.resize(net_->node_count());
  for (auto& protocol : protocols_) {
    protocol = routing::ProtocolRegistry::make(cfg_.protocol, deps);
  }
  if (protocols_.front()->wants_hello()) {
    hello_ = std::make_unique<net::HelloService>(*net_, rngs_.stream("hello"),
                                                 cfg_.hello);
  }
  // The world: the road topology the vehicles drive on and what derives
  // from it (non-owning; the scenario outlives its protocols).
  world_.map = road_graph_.get();
  world_.segments = segment_index_.get();
  world_.seg_snapshot = seg_snapshot_.get();
  world_.density = density_.get();
  world_.ferries = &ferries_;
  world_.route_geometry = uses_route_geometry(cfg_.geometry, *road_graph_);
  for (const net::NodeId id : net_->node_ids()) {
    routing::ProtocolContext ctx;
    ctx.sim = &sim_;
    ctx.net = net_.get();
    ctx.hello = hello_.get();
    ctx.rng = &rngs_.stream("proto");
    ctx.events = &events_;
    ctx.self = id;
    ctx.world = &world_;
    protocols_[id]->bind(ctx);

    net_->set_receive_handler(id, [this, id](const net::Packet& p) {
      if (p.kind == net::PacketKind::kHello) {
        if (hello_) hello_->on_frame(id, p);
        return;
      }
      protocols_[id]->handle_frame(p);
    });
    net_->set_unicast_fail_handler(id, [this, id](const net::Packet& p) {
      protocols_[id]->handle_unicast_failure(p);
    });
    protocols_[id]->set_deliver_callback([this](const net::Packet& p) {
      metrics_.record_delivery(p.flow, p.seq, p.created_at, sim_.now(),
                               p.hops);
    });
  }

  std::vector<routing::RoutingProtocol*> raw;
  raw.reserve(protocols_.size());
  for (auto& p : protocols_) raw.push_back(p.get());
  traffic_ = std::make_unique<CbrTraffic>(sim_, *net_, std::move(raw),
                                          vehicle_count_, metrics_,
                                          rngs_.stream("traffic"), cfg_.traffic);

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
    seg_snapshot_->set_prover(
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

  // Without a plan or churn *nothing* happens: the "fault" stream is never
  // derived, no event is scheduled and metrics keep their lean path —
  // provably bit-identical to a build without the fault subsystem.
  if (cfg_.fault.active()) {
    // The turn rule reads no blocks: a segment fault under it is refused.
    fault_plan_ = std::make_unique<FaultPlan>(
        sim_, *net_,
        cfg_.mobility == MobilityKind::kGraph ? graph_model_ : nullptr,
        rngs_.stream("fault"), cfg_.fault, cfg_.duration_s);
    metrics_.set_fault_tracking(true);
  }
}

Scenario::~Scenario() = default;

void Scenario::update_density() {
  std::vector<double> counts(road_graph_->segment_count(), 0.0);
  for (const mobility::VehicleState& v : mobility_->vehicles()) {
    // Graph mobility: through the shared snapshot, whose prover is
    // the proven reported_segment + ambiguity mask and whose fallback is the
    // same index query — digest-identical — and which warms the per-node
    // entries the route-geometry protocols read. Other mobility models
    // prove nothing, so they query the index directly; it returns exactly
    // RoadGraph::segment_of_position(pos) — see map/segment_index.h —
    // without the O(segments) scan per vehicle.
    const int seg = graph_model_ != nullptr
                        ? seg_snapshot_->segment_of(v.id, v.pos)
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
  const auto& flows = traffic_->flows();
  if (!flows.empty()) {
    // One component labeling answers every flow at this instant; running a
    // BFS per flow re-derived the same adjacency per pair.
    const std::vector<std::uint32_t> labels =
        net_->reachability_components(net_->nominal_range());
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
  if (hello_) hello_->start(net_->node_ids());
  for (const auto& protocol : protocols_) protocol->start();
  traffic_->start();
  if (fault_plan_) fault_plan_->start();
  if (cfg_.sample_reachability) {
    // Sample over the traffic window only (flows exist after start()).
    sim_.schedule(core::SimTime::seconds(cfg_.traffic.start_s),
                  [this] { sample_reachability(); });
  }
  sim_.run_until(core::SimTime::seconds(cfg_.duration_s));
}

ScenarioReport Scenario::report() const {
  ScenarioReport r =
      assemble_report(cfg_, metrics_, net_->counters(), events_,
                      reachable_samples_, total_samples_);
  if (fault_plan_) {
    FaultReport& f = r.fault.emplace();
    // Classify both sides of the delivery ledger by *send* time against the
    // completed fault timeline (see Metrics::set_fault_tracking).
    for (const core::SimTime t : metrics_.origination_times()) {
      if (fault_plan_->fault_active_at(t)) ++f.faulted_originated;
    }
    for (const core::SimTime t : metrics_.first_delivery_sent_times()) {
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
    f.frames_dropped_down = net_->counters().frames_dropped_down;
    f.recovery_latency_mean_s = net_->recovery_latency().mean();
  }
  return r;
}

}  // namespace vanet::sim

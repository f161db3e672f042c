// Scenario-throughput harness for the PHY/MAC hot path.
//
// Runs fixed-seed scenarios across the mobility families (highway /
// Manhattan / trace playback / graph-constrained) plus the `map-aware`
// routing family (zone/grid/gvgrid with route geometry over an imported
// irregular map) and the `lossy` family (link-quality routing under
// Nakagami fast fading: etx vs hop-count dsdv vs the paper's yan on the
// same dense lattice) and the `scale` family (the large-population ladder:
// 10k-50k vehicles at constant street density) and a population sweep, and
// emits one machine-readable JSON document: wall time, simulator events
// dispatched, events/sec and the canonical report digest per run. CI runs `--smoke` and fails on malformed
// output; BENCH_*.json files in the repo root track the full sweep
// before/after perf work (see docs/PERFORMANCE.md).
//
// Usage:
//   bench_scenario_throughput [--smoke] [--out FILE]
//       [--families highway,manhattan,trace,graph,map-aware,lossy,scale]
//       [--sizes 100,250,500,1000] [--duration SECONDS] [--seed N]
//
// The `scale` family ignores --sizes and --duration: its population ladder
// and 5 s horizon are fixed, so any rerun (smoke included) reproduces the
// committed baseline rows exactly.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "map/builders.h"
#include "mobility/manhattan_grid.h"
#include "mobility/trace.h"
#include "sim/runner.h"
#include "sim/scenario.h"

namespace {

using vanet::sim::MobilityKind;
using vanet::sim::ScenarioConfig;
using vanet::sim::TimedRun;

struct Options {
  std::vector<std::string> families{"highway", "manhattan", "trace",  "graph",
                                    "map-aware", "lossy",   "scale"};
  std::vector<int> sizes{100, 250, 500, 1000};
  double duration_s = 10.0;
  std::uint64_t seed = 1;
  bool smoke = false;
  std::string out_path;  // empty: stdout
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss{s};
  std::string item;
  while (std::getline(ss, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    try {
      if (arg == "--smoke") {
        // One cheap lattice row plus one map-aware row, so CI's
        // bench_compare guards the route-geometry path as well; the lossy
        // family's etx row, so it guards the ETX agent's digests (see
        // lossy_protocols_for); the scale family shrinks to its 10k row
        // (see scale_sizes_for).
        opt.families = {"manhattan", "map-aware", "lossy", "scale"};
        opt.sizes = {100};
        opt.duration_s = 2.0;
        opt.smoke = true;
      } else if (arg == "--out") {
        const char* v = value();
        if (v == nullptr) return false;
        opt.out_path = v;
      } else if (arg == "--families") {
        const char* v = value();
        if (v == nullptr) return false;
        opt.families = split(v, ',');
      } else if (arg == "--sizes") {
        const char* v = value();
        if (v == nullptr) return false;
        opt.sizes.clear();
        for (const auto& s : split(v, ',')) opt.sizes.push_back(std::stoi(s));
      } else if (arg == "--duration") {
        const char* v = value();
        if (v == nullptr) return false;
        opt.duration_s = std::stod(v);
      } else if (arg == "--seed") {
        const char* v = value();
        if (v == nullptr) return false;
        opt.seed = std::stoull(v);
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "invalid numeric value for " << arg << "\n";
      return false;
    }
  }
  return true;
}

// Shared knobs: enough traffic + beacons to keep the channel contended, the
// same for every family so events/sec compares across them.
void apply_common(ScenarioConfig& cfg, const Options& opt) {
  cfg.seed = opt.seed;
  cfg.duration_s = opt.duration_s;
  cfg.protocol = "aodv";  // RREQ flooding: the worst-case broadcast load
  cfg.traffic.flows = 20;
  cfg.traffic.rate_pps = 4.0;
  cfg.traffic.start_s = 1.0;
  cfg.traffic.stop_s = opt.duration_s;
  cfg.sample_reachability = true;
}

// Deterministic 64-bit mix (SplitMix64): integer-only, so the generated city
// below is bit-identical on every platform — no libm in the coordinates.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Irregular city for the map-aware family: a 6x6 street network with
/// hash-jittered intersections (±64 m, exact dyadic offsets) and a sprinkle
/// of diagonal shortcuts — pointedly NOT a lattice (is_grid() is false), so
/// the route-geometry code paths actually run. ~2 km on a side.
vanet::map::RoadGraph irregular_city() {
  const int nx = 6, ny = 6;
  const double block = 400.0;
  vanet::map::RoadGraph g;
  for (int iy = 0; iy < ny; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      const std::uint64_t h = mix64(static_cast<std::uint64_t>(iy * nx + ix));
      const double dx = (static_cast<double>(h & 255u) - 128.0) * 0.5;
      const double dy = (static_cast<double>((h >> 8) & 255u) - 128.0) * 0.5;
      g.add_intersection({ix * block + dx, iy * block + dy});
    }
  }
  const auto at = [nx](int ix, int iy) { return iy * nx + ix; };
  for (int iy = 0; iy < ny; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      if (ix + 1 < nx) g.add_segment(at(ix, iy), at(ix + 1, iy));
      if (iy + 1 < ny) g.add_segment(at(ix, iy), at(ix, iy + 1));
      const std::uint64_t h = mix64(static_cast<std::uint64_t>(iy * nx + ix));
      if (ix + 1 < nx && iy + 1 < ny && ((h >> 16) & 7u) == 0u) {
        g.add_segment(at(ix, iy), at(ix + 1, iy + 1));
      }
    }
  }
  return g;
}

/// Writes the irregular city once and hands out its CSV path (the map-aware
/// family goes through `map.source=file`, the same path users take). The
/// name carries the PID so concurrent bench runs on one machine never read
/// each other's half-written file.
const std::string& irregular_city_csv() {
  static const std::string path = [] {
    const std::string p =
        (std::filesystem::temp_directory_path() /
         ("vanet_bench_city." + std::to_string(::getpid()) + ".csv"))
            .string();
    vanet::map::save_edge_list_csv_file(irregular_city(), p);
    return p;
  }();
  return path;
}

/// Which geometry protocol a map-aware row runs. A function of the vehicle
/// count alone — never of the position in --sizes — so any subset of sizes
/// reproduces the committed baseline rows exactly (bench_compare matches on
/// family+vehicles and would otherwise report a spurious digest mismatch).
const char* geometry_protocol_for(int vehicles) {
  if (vehicles < 200) return "zone";
  if (vehicles < 400) return "grid";
  if (vehicles < 750) return "gvgrid";
  return "zone";
}

/// Which protocols a lossy-family row runs (one bench row each). A function
/// of the vehicle count alone, like geometry_protocol_for: the comparison
/// set rides the sizes where all three finish quickly; the largest band
/// keeps the link-quality hot path covered with the etx row alone. Smoke
/// runs only the etx row, the one that guards the ETX agent's digests.
std::vector<std::string> lossy_protocols_for(int vehicles,
                                             const Options& opt) {
  if (opt.smoke) return {"etx"};
  if (vehicles < 750) return {"etx", "dsdv", "yan"};
  return {"etx"};
}

/// Protocol rows per (family, vehicles): every family is one row except
/// `lossy`, which emits one row per compared protocol. "" keeps the
/// family's own make_config choice.
std::vector<std::string> protocols_for(const std::string& family,
                                       int vehicles, const Options& opt) {
  if (family == "lossy") return lossy_protocols_for(vehicles, opt);
  return {""};
}

/// The scale family's population ladder. Fixed — --sizes does not apply —
/// so bench_compare always finds the committed rows. Smoke keeps the single
/// cheapest band.
std::vector<int> scale_sizes_for(const Options& opt) {
  if (opt.smoke) return {10000};
  return {10000, 25000, 50000};
}

/// Lattice side (streets per axis) for a scale band: grows with the
/// population so linear street density stays ~constant (weak scaling) —
/// total street length is ~600*n^2 m, so ~30 m of street per vehicle in
/// every band. Banded like geometry_protocol_for, never a function of the
/// position in the ladder.
int scale_streets_for(int vehicles) {
  if (vehicles <= 10000) return 22;
  if (vehicles <= 25000) return 35;
  return 50;
}

std::vector<int> sizes_for(const std::string& family, const Options& opt) {
  if (family == "scale") return scale_sizes_for(opt);
  return opt.sizes;
}

vanet::mobility::ManhattanConfig manhattan_for(int vehicles) {
  vanet::mobility::ManhattanConfig m;
  // Keep the area fixed (urban density sweep): 10x10 streets, 200 m blocks.
  m.streets_x = 10;
  m.streets_y = 10;
  m.block = 200.0;
  (void)vehicles;
  return m;
}

ScenarioConfig make_config(const std::string& family, int vehicles,
                           const Options& opt) {
  ScenarioConfig cfg;
  apply_common(cfg, opt);
  if (family == "map-aware") {
    // Route-geometry protocols over the imported irregular city; the
    // population bands rotate through the three geometry protocols so the
    // default sweep guards each of them.
    cfg.map.source = vanet::sim::MapSource::kFile;
    cfg.map.file = irregular_city_csv();
    cfg.mobility = MobilityKind::kGraph;
    cfg.vehicles = vehicles;
    cfg.protocol = geometry_protocol_for(vehicles);
    cfg.zone_geometry = vanet::routing::GeometryMode::kRoute;
    cfg.grid_geometry = vanet::routing::GeometryMode::kRoute;
    cfg.gvgrid_geometry = vanet::routing::GeometryMode::kRoute;
  } else if (family == "highway") {
    cfg.mobility = MobilityKind::kHighway;
    cfg.vehicles_per_direction = vehicles / 2;
  } else if (family == "manhattan") {
    cfg.mobility = MobilityKind::kManhattan;
    cfg.manhattan = manhattan_for(vehicles);
    cfg.vehicles = vehicles;
  } else if (family == "graph") {
    // Graph-constrained trips on the same 10x10 lattice the Manhattan rows
    // use, so the two urban families compare on identical topology.
    cfg.mobility = MobilityKind::kGraph;
    cfg.manhattan = manhattan_for(vehicles);
    cfg.vehicles = vehicles;
  } else if (family == "lossy") {
    // Link-quality comparison sweep: a dense fixed-area lattice (blocks at
    // the ~100 m scale where Nakagami m=1 links are still good) under fast
    // fading, so the delivery-ratio estimator has real loss to measure.
    // m hardens to 3 for the largest band, per-size like the protocol set.
    cfg.mobility = MobilityKind::kManhattan;
    cfg.manhattan.streets_x = 10;
    cfg.manhattan.streets_y = 10;
    cfg.manhattan.block = 100.0;
    cfg.vehicles = vehicles;
    cfg.phy = vanet::sim::PhyModel::kNakagami;
    cfg.nakagami_m = vehicles < 750 ? 1 : 3;
    cfg.protocol = "etx";  // the caller overrides per lossy_protocols_for row
  } else if (family == "scale") {
    // Large-population ladder: the lattice grows with the population
    // (scale_streets_for) so density stays ~constant, greedy forwarding
    // keeps per-packet work local (an AODV RREQ flood across 50k nodes
    // would measure the flood, not the engine), and reachability sampling
    // is off — a BFS over 50k nodes each second would dominate wall time.
    // The 5 s horizon is fixed so every row, smoke included, reproduces
    // regardless of --duration.
    cfg.mobility = MobilityKind::kManhattan;
    cfg.manhattan.streets_x = scale_streets_for(vehicles);
    cfg.manhattan.streets_y = scale_streets_for(vehicles);
    cfg.manhattan.block = 300.0;
    cfg.vehicles = vehicles;
    cfg.protocol = "greedy";
    cfg.traffic.flows = 50;
    cfg.sample_reachability = false;
    cfg.duration_s = 5.0;
    cfg.traffic.stop_s = cfg.duration_s;
  } else if (family == "trace") {
    // Deterministically record a Manhattan run and play it back, so the
    // trace family exercises TracePlaybackModel with realistic motion.
    cfg.mobility = MobilityKind::kTrace;
    vanet::mobility::ManhattanGridModel model{manhattan_for(vehicles)};
    vanet::core::Rng rng{opt.seed * 7919 + 17};
    model.populate(vehicles, rng);
    vanet::mobility::TraceRecorder recorder;
    const double dt = 0.1;
    recorder.capture(0.0, model);
    for (double t = dt; t <= opt.duration_s + dt; t += dt) {
      model.step(dt, rng);
      recorder.capture(t, model);
    }
    cfg.trace = recorder.take();
  } else {
    std::cerr << "unknown family: " << family << "\n";
    std::exit(2);
  }
  return cfg;
}

void append_json_run(std::string& out, const std::string& family, int vehicles,
                     double sim_duration_s, const Options& opt,
                     const TimedRun& run) {
  std::ostringstream os;
  os.precision(17);
  os << "    {\n"
     << "      \"family\": \"" << family << "\",\n"
     << "      \"protocol\": \"" << run.report.protocol << "\",\n"
     << "      \"vehicles\": " << run.vehicles << ",\n"
     << "      \"requested_vehicles\": " << vehicles << ",\n"
     << "      \"seed\": " << opt.seed << ",\n"
     << "      \"sim_duration_s\": " << sim_duration_s << ",\n"
     << "      \"wall_s\": " << run.wall_s << ",\n"
     << "      \"events_dispatched\": " << run.events_dispatched << ",\n"
     << "      \"events_per_sec\": " << run.events_per_sec() << ",\n"
     << "      \"sched_slab_allocs\": " << run.sched_slab_allocs << ",\n"
     << "      \"sched_oversize_callbacks\": " << run.sched_oversize_callbacks
     << ",\n"
     << "      \"sched_peak_pending\": " << run.sched_peak_pending << ",\n"
     << "      \"sched_allocs_per_event\": " << run.sched_allocs_per_event()
     << ",\n"
     << "      \"lifetime_memo_hits\": " << run.lifetime_memo_hits << ",\n"
     << "      \"lifetime_memo_misses\": " << run.lifetime_memo_misses << ",\n"
     << "      \"lifetime_memo_hit_rate\": " << run.lifetime_memo_hit_rate()
     << ",\n"
     << "      \"seg_snapshot_queries\": " << run.seg_snapshot_queries << ",\n"
     << "      \"seg_snapshot_hits\": " << run.seg_snapshot_hits << ",\n"
     << "      \"seg_snapshot_proven\": " << run.seg_snapshot_proven << ",\n"
     << "      \"seg_snapshot_index_queries\": "
     << run.seg_snapshot_index_queries << ",\n"
     << "      \"seg_snapshot_hit_rate\": " << run.seg_snapshot_hit_rate()
     << ",\n"
     << "      \"frames_sent\": "
     << (run.report.data_frames + run.report.control_frames +
         run.report.hello_frames)
     << ",\n"
     << "      \"receptions_ok\": " << run.report.receptions_ok << ",\n"
     << "      \"pdr\": " << run.report.pdr << ",\n"
     << "      \"report_digest\": \"" << vanet::sim::report_digest(run.report)
     << "\"\n"
     << "    }";
  out += os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  std::string json;
  json += "{\n";
  json += "  \"benchmark\": \"scenario_throughput\",\n";
  // Hardware context for readers comparing events/sec across documents.
  json += "  \"hw_threads\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"results\": [\n";
  bool first = true;
  for (const std::string& family : opt.families) {
    for (const int vehicles : sizes_for(family, opt)) {
      for (const std::string& protocol : protocols_for(family, vehicles, opt)) {
        ScenarioConfig cfg = make_config(family, vehicles, opt);
        if (!protocol.empty()) cfg.protocol = protocol;
        const TimedRun run = vanet::sim::run_timed(cfg);
        if (!first) json += ",\n";
        first = false;
        append_json_run(json, family, vehicles, cfg.duration_s, opt, run);
        std::cerr << family << "/" << vehicles << " (" << cfg.protocol
                  << "): " << run.events_dispatched << " events in "
                  << run.wall_s << " s ("
                  << static_cast<std::uint64_t>(run.events_per_sec())
                  << " events/sec)\n";
      }
    }
  }
  json += "\n  ]\n}\n";

  if (opt.out_path.empty()) {
    std::cout << json;
  } else {
    std::ofstream f{opt.out_path};
    if (!f) {
      std::cerr << "cannot open " << opt.out_path << "\n";
      return 2;
    }
    f << json;
  }
  return 0;
}

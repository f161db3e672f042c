// vanet_cli — declarative experiment front-end for the VANET simulator.
//
// Subcommands:
//   run    one cell per protocol: --protocol NAME or --protocols a,b,c
//   sweep  full run matrix: protocols x --sweep axes x seeds, in parallel
//   list   dump the protocol registry
//
//   vanet_cli run   [--protocol aodv] [--vehicles 40] [--set key=value ...]
//   vanet_cli sweep --protocols aodv,yan --sweep vehicles=40,80
//                   --seeds 3 --jobs 4 --format csv
//   vanet_cli list
//
// Any ScenarioConfig field is reachable via --set key=value and sweepable
// via --sweep key=v1,v2,... (see `--keys` for the full list). Mobility
// traces: --mobility trace --trace FILE replays a SUMO-like CSV. Custom
// maps: --set map.source=file --set map.file=FILE drives graph-constrained
// mobility over an edge-list CSV (see map/builders.h for the schema).
// Output goes through a ReportSink: --format md (default) | csv | jsonl.
// Invoked without a subcommand, flags are interpreted as `run` (the historic
// single-scenario interface).
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "routing/registry.h"
#include "sim/config_kv.h"
#include "sim/experiment.h"
#include "sim/report_sink.h"
#include "sim/table.h"

namespace {

using namespace vanet;

[[noreturn]] void usage(const char* argv0, int code = 2) {
  std::ostream& out = code == 0 ? std::cout : std::cerr;
  out << "usage: " << argv0 << " [run|sweep|list] [options]\n"
      << "\nsubcommands:\n"
      << "  run    (default) run each protocol once over the seed list\n"
      << "  sweep  run the full protocol x axes x seed matrix\n"
      << "  list   print the protocol registry and exit\n"
      << "\nscenario options:\n"
      << "  --protocol NAME      routing protocol (default aodv; see list)\n"
      << "  --protocols A,B,C    compare several protocols\n"
      << "  --mobility KIND      highway | manhattan | trace | graph\n"
      << "  --trace FILE         SUMO-like CSV for --mobility trace\n"
      << "  --vehicles N         per direction (highway) / total (urban kinds)\n"
      << "  --duration S         simulated seconds (default 60)\n"
      << "  --range M            unit-disk radio range (default 250)\n"
      << "  --shadowing          log-normal shadowing channel instead\n"
      << "  --rsus N             roadside units (default 0)\n"
      << "  --buses N            bus ferries (default 0)\n"
      << "  --flows N            CBR flows (default 8)\n"
      << "  --rate PPS           packets per second per flow (default 1)\n"
      << "  --set KEY=VALUE      override any config field (repeatable);\n"
      << "                       map.source=file + map.file=F load a custom\n"
      << "                       edge-list CSV map (implies graph mobility)\n"
      << "  --keys               print all --set/--sweep keys and exit\n"
      << "\nexperiment options:\n"
      << "  --sweep KEY=V1,V2    add a sweep axis (repeatable; first axis\n"
      << "                       varies slowest)\n"
      << "  --seed X             first seed (default 1)\n"
      << "  --seeds N            number of seeds (default 3)\n"
      << "  --jobs N             worker threads (default 1; 0 = all cores)\n"
      << "  --format F           md | csv | jsonl (default md)\n"
      << "  --jsonl-runs         with jsonl, also emit one record per run\n"
      << "\nrobustness options (see docs/ROBUSTNESS.md):\n"
      << "  --timeout S          wall-clock watchdog per run (0 = off)\n"
      << "  --max-events N       simulator event budget per run (0 = off)\n"
      << "  --retries N          retry failed runs with derived seeds\n"
      << "  --fail-fast          abort the sweep on the first failure\n"
      << "                       (default: capture failures, report them,\n"
      << "                       keep running, and exit nonzero at the end)\n"
      << "  --list               alias for the list subcommand\n"
      << "  --help               this message\n";
  std::exit(code);
}

[[noreturn]] void fail(const std::string& msg) {
  std::cerr << "vanet_cli: " << msg << "\n";
  std::exit(2);
}

long long checked_int(const std::string& flag, const std::string& value) {
  const auto parsed = sim::parse_int_checked(value);
  if (!parsed) fail("invalid value '" + value + "' for " + flag +
                    " (expected an integer)");
  return *parsed;
}

/// checked_int narrowed to int — rejects values that would wrap.
int checked_int32(const std::string& flag, const std::string& value) {
  const long long n = checked_int(flag, value);
  if (n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    fail("value '" + value + "' for " + flag + " is out of range");
  }
  return static_cast<int>(n);
}

double checked_double(const std::string& flag, const std::string& value) {
  const auto parsed = sim::parse_double_checked(value);
  if (!parsed) fail("invalid value '" + value + "' for " + flag +
                    " (expected a finite number)");
  return *parsed;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int run_list() {
  sim::Table t({"protocol", "category", "ref", "metric"});
  for (const auto& info : routing::ProtocolRegistry::all()) {
    t.add_row({std::string(info.name),
               std::string(routing::to_string(info.category)),
               std::string(info.reference), std::string(info.metric)});
  }
  t.print(std::cout);
  return 0;
}

int run_keys(const sim::ScenarioConfig& cfg) {
  sim::Table t({"key", "default"});
  for (const std::string& key : sim::config_keys()) {
    t.add_row({key, sim::config_get(cfg, key)});
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  sim::ExperimentSpec spec;
  spec.base.traffic.flows = 8;
  spec.base.traffic.rate_pps = 1.0;
  spec.base.traffic.start_s = 5.0;

  int argi = 1;
  std::string command = "run";
  if (argi < argc && argv[argi][0] != '-') {
    command = argv[argi++];
    if (command != "run" && command != "sweep" && command != "list") {
      fail("unknown subcommand '" + command + "' (run | sweep | list)");
    }
  }
  int seeds = 3;
  std::uint64_t first_seed = 1;
  bool explicit_stop = false;
  int jobs = 1;
  std::string format = "md";
  bool jsonl_runs = false;
  std::string trace_file;

  for (int i = argi; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) fail("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else if (arg == "--list") {
      return run_list();
    } else if (arg == "--keys") {
      return run_keys(spec.base);
    } else if (arg == "--protocol") {
      spec.base.protocol = next();
    } else if (arg == "--protocols") {
      spec.protocols = split_csv(next());
      if (spec.protocols.empty()) fail("--protocols needs at least one name");
    } else if (arg == "--mobility") {
      const std::string kind = next();
      try {
        sim::config_set(spec.base, "mobility", kind);
      } catch (const std::invalid_argument&) {
        fail("invalid value '" + kind +
             "' for --mobility (highway | manhattan | trace | graph)");
      }
    } else if (arg == "--trace") {
      trace_file = next();
    } else if (arg == "--vehicles") {
      const int n = checked_int32(arg, next());
      if (n <= 0) fail("--vehicles must be positive");
      sim::config_set(spec.base, "vehicles", std::to_string(n));
    } else if (arg == "--duration") {
      const std::string value = next();
      try {
        sim::config_set(spec.base, "duration_s", value);
      } catch (const std::invalid_argument& e) {
        fail(arg + ": " + e.what());
      }
    } else if (arg == "--range") {
      spec.base.comm_range_m = checked_double(arg, next());
    } else if (arg == "--shadowing") {
      spec.base.phy = sim::PhyModel::kShadowing;
    } else if (arg == "--rsus") {
      spec.base.rsu_count = checked_int32(arg, next());
    } else if (arg == "--buses") {
      spec.base.bus_count = checked_int32(arg, next());
    } else if (arg == "--flows") {
      spec.base.traffic.flows = checked_int32(arg, next());
    } else if (arg == "--rate") {
      spec.base.traffic.rate_pps = checked_double(arg, next());
    } else if (arg == "--set") {
      const std::string kv = next();
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) fail("--set expects KEY=VALUE, got '" + kv + "'");
      if (kv.compare(0, eq, "seed") == 0) {
        fail("--set seed is overwritten per run — use --seed/--seeds");
      }
      try {
        sim::config_set(spec.base, kv.substr(0, eq), kv.substr(eq + 1));
      } catch (const std::invalid_argument& e) {
        fail(std::string("--set ") + kv + ": " + e.what());
      }
      if (kv.compare(0, eq, "traffic.stop_s") == 0) explicit_stop = true;
    } else if (arg == "--sweep") {
      const std::string kv = next();
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        fail("--sweep expects KEY=V1,V2,..., got '" + kv + "'");
      }
      sim::SweepAxis axis;
      axis.key = kv.substr(0, eq);
      axis.values = split_csv(kv.substr(eq + 1));
      if (!sim::config_has_key(axis.key)) {
        fail("--sweep: unknown config key '" + axis.key + "' (see --keys)");
      }
      if (axis.values.empty()) {
        fail("--sweep " + axis.key + ": needs at least one value");
      }
      spec.axes.push_back(std::move(axis));
    } else if (arg == "--seed") {
      const long long s = checked_int(arg, next());
      if (s < 0) fail("--seed must be non-negative");
      first_seed = static_cast<std::uint64_t>(s);
    } else if (arg == "--seeds") {
      seeds = checked_int32(arg, next());
      if (seeds <= 0) fail("--seeds must be positive");
    } else if (arg == "--jobs") {
      jobs = checked_int32(arg, next());
    } else if (arg == "--timeout") {
      spec.guards.timeout_s = checked_double(arg, next());
      if (spec.guards.timeout_s < 0.0) fail("--timeout must be >= 0");
    } else if (arg == "--max-events") {
      const long long n = checked_int(arg, next());
      if (n < 0) fail("--max-events must be >= 0");
      spec.guards.max_events = static_cast<std::uint64_t>(n);
    } else if (arg == "--retries") {
      spec.guards.retries = checked_int32(arg, next());
      if (spec.guards.retries < 0) fail("--retries must be >= 0");
    } else if (arg == "--fail-fast") {
      spec.guards.capture = false;
    } else if (arg == "--format") {
      format = next();
      if (format != "md" && format != "csv" && format != "jsonl") {
        fail("invalid value '" + format + "' for --format (md | csv | jsonl)");
      }
    } else if (arg == "--jsonl-runs") {
      jsonl_runs = true;
    } else {
      std::cerr << "vanet_cli: unknown option '" << arg << "'\n\n";
      usage(argv[0]);
    }
  }
  if (command == "list") return run_list();

  if (spec.base.mobility == sim::MobilityKind::kTrace) {
    if (trace_file.empty()) fail("--mobility trace requires --trace FILE");
    try {
      spec.base.trace = mobility::Trace::load_csv_file(trace_file);
    } catch (const std::exception& e) {
      fail("failed to load trace '" + trace_file + "': " + e.what());
    }
  } else if (!trace_file.empty()) {
    fail("--trace is only meaningful with --mobility trace");
  }

  std::vector<std::string> protocols = spec.protocols;
  if (protocols.empty()) protocols.push_back(spec.base.protocol);
  for (const std::string& p : protocols) {
    if (routing::ProtocolRegistry::find(p) == nullptr) {
      fail("unknown protocol '" + p + "' (try list)");
    }
  }
  if (command == "run" && !spec.axes.empty()) {
    fail("--sweep axes require the sweep subcommand");
  }

  bool sweeps_duration = false, sweeps_stop = false;
  for (const auto& axis : spec.axes) {
    if (axis.key == "duration_s") sweeps_duration = true;
    if (axis.key == "traffic.stop_s") sweeps_stop = true;
  }
  if (sweeps_duration && !explicit_stop && !sweeps_stop) {
    // The default stop time derives from the (single) base duration; with a
    // duration axis that would silently give every cell the same stop time.
    fail("sweeping duration_s needs an explicit traffic.stop_s "
         "(--set traffic.stop_s=S or a traffic.stop_s sweep axis)");
  }
  if (!explicit_stop) spec.base.traffic.stop_s = spec.base.duration_s * 0.8;
  bool sweeps_start = false;
  for (const auto& axis : spec.axes) {
    if (axis.key == "traffic.start_s") sweeps_start = true;
  }
  if (!sweeps_stop && !sweeps_start &&
      spec.base.traffic.stop_s <= spec.base.traffic.start_s) {
    fail("traffic window is empty: stop (" +
         std::to_string(spec.base.traffic.stop_s) + " s) <= start (" +
         std::to_string(spec.base.traffic.start_s) +
         " s); raise --duration or --set traffic.start_s/traffic.stop_s");
  }
  spec.seeds.clear();
  for (int k = 0; k < seeds; ++k) spec.seeds.push_back(first_seed + k);

  std::unique_ptr<sim::ReportSink> sink;
  if (format == "csv") {
    sink = std::make_unique<sim::CsvSink>(std::cout);
  } else if (format == "jsonl") {
    sink = std::make_unique<sim::JsonlSink>(std::cout, jsonl_runs);
  } else {
    sink = std::make_unique<sim::MarkdownSink>(std::cout);
  }

  try {
    sim::ExperimentEngine engine{jobs};
    const sim::ExperimentResult result = engine.run(spec, *sink);
    if (!result.failures.empty()) {
      // Structured per-spec summary on stderr (stdout carries the sink
      // stream untouched), then a nonzero exit so scripts notice.
      std::cerr << "vanet_cli: " << result.failures.size() << " of "
                << result.cells.size() * spec.seeds.size()
                << " runs failed:\n";
      for (const sim::FailureRecord& f : result.failures) {
        std::cerr << "  " << f.protocol;
        for (const auto& [key, value] : f.axes) {
          std::cerr << " " << key << "=" << value;
        }
        std::cerr << " seed=" << f.seed << " attempts=" << f.attempts << " ["
                  << f.kind << "]: " << f.error << "\n";
      }
      return 1;
    }
  } catch (const std::exception& e) {
    fail(e.what());
  }
  return 0;
}

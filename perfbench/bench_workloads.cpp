// Benchmark driver: runs ONE input of one named workload and prints the
// result as one JSON object on stdout.
//
// perfbench/run.py owns everything around a single input: seeds,
// repetition, statistics and output checks (see perfbench/README.md). One
// input per process keeps peak RSS a per-input number.
//
// Usage:
//   bench_workloads --workload NAME --seed N [--jobs N] [--trace 0|1]
//                   [--spans FILE] [--set key=value ...]
//
// Workloads (closed batch: the input runs to completion, nothing queues):
//   urban-aodv   Manhattan 10x10 lattice, 200 m blocks, 1000 vehicles, aodv,
//                40 flows starting together: RREQ floods, so the MAC tx-end
//                fan-out and the scheduler dominate. No hello, no link
//                estimation.
//   lossy-etx    10x10 lattice, 100 m blocks, Nakagami m=1, etx: hello
//                beacons carrying route tables, plus Dijkstra per advert.
//   city-greedy  22x22 lattice, 300 m blocks, 10000 vehicles, greedy, no
//                reachability oracle: mobility ticks, plain hello beacons,
//                set-up and memory dominate.
//   paper-sweep  the Table I matrix of bench_table1_summary (5 regimes x 5
//                category protocols x 2 seeds) through ExperimentEngine:
//                many short runs on `--jobs` workers.
//
// --trace 1    times every event and every layer boundary from outside the
//              simulator, through hooks installed via Scenario's public
//              accessors, and adds a "trace" object to the output.
// --spans FILE with --trace 1: also writes the full spans of the events in
//              one simulated window (the first run's) to FILE as JSONL.
// --set k=v    config_kv override applied to every scenario of the input,
//              for ad-hoc diagnostics (e.g. --set scenario.shards=4).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stats.h"
#include "core/rng.h"
#include "sim/config_kv.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

namespace {

using vanet::sim::Scenario;
using vanet::sim::ScenarioConfig;
using Overrides = std::vector<std::pair<std::string, std::string>>;

double now_s() {
  // NOLINT-vanet(wall-clock): benchmark timing only; never feeds sim state or digests
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

/// Peak resident set of this process image, from /proc/self/status VmHWM.
/// (getrusage's ru_maxrss would also count the parent's RSS at fork: Linux
/// carries it across exec.)
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// A single run's report digest, or for a sweep the FNV-1a of its report
/// digests in matrix order.
std::string input_digest(const std::vector<std::string>& digests) {
  if (digests.size() == 1) return digests.front();
  std::uint64_t h = 1469598103934665603ull;
  for (const std::string& d : digests) {
    for (const char c : d + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ------------------------------------------------------------ workloads ---

// Shared traffic of the single-run workloads (bench_scenario_throughput's):
// CBR flows at 4 pps from t=1 s to the horizon.
ScenarioConfig lattice(int streets, double block, int vehicles,
                       double duration_s) {
  ScenarioConfig cfg;
  cfg.duration_s = duration_s;
  cfg.mobility = vanet::sim::MobilityKind::kManhattan;
  cfg.manhattan.streets_x = streets;
  cfg.manhattan.streets_y = streets;
  cfg.manhattan.block = block;
  cfg.vehicles = vehicles;
  cfg.traffic.flows = 20;
  cfg.traffic.rate_pps = 4.0;
  cfg.traffic.start_s = 1.0;
  cfg.traffic.stop_s = duration_s;
  return cfg;
}

ScenarioConfig single_run_config(const std::string& workload) {
  if (workload == "urban-aodv") {
    // 40 discoveries at once: twice the flows of the throughput bench's
    // urban rows, which halves the input-to-input spread of flood work.
    ScenarioConfig cfg = lattice(10, 200.0, 1000, 2.0);
    cfg.traffic.flows = 40;
    cfg.protocol = "aodv";
    return cfg;
  }
  if (workload == "lossy-etx") {
    ScenarioConfig cfg = lattice(10, 100.0, 200, 10.0);
    cfg.phy = vanet::sim::PhyModel::kNakagami;
    cfg.nakagami_m = 1;
    cfg.protocol = "etx";
    return cfg;
  }
  if (workload == "city-greedy") {
    ScenarioConfig cfg = lattice(22, 300.0, 10000, 3.0);
    cfg.traffic.flows = 50;
    cfg.protocol = "greedy";
    // A BFS over every vehicle each second would measure the oracle.
    cfg.sample_reachability = false;
    return cfg;
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

ScenarioConfig table1_highway(int per_direction, double desired_speed) {
  ScenarioConfig cfg;
  cfg.mobility = vanet::sim::MobilityKind::kHighway;
  cfg.highway.length = 4000.0;
  cfg.highway.idm.desired_speed = desired_speed;
  cfg.vehicles_per_direction = per_direction;
  cfg.duration_s = 60.0;
  cfg.traffic.flows = 8;
  cfg.traffic.rate_pps = 1.0;
  cfg.traffic.start_s = 5.0;
  cfg.traffic.stop_s = 45.0;
  cfg.traffic.min_pair_distance_m = 700.0;
  return cfg;
}

ScenarioConfig table1_urban() {
  ScenarioConfig cfg;
  cfg.mobility = vanet::sim::MobilityKind::kManhattan;
  cfg.manhattan.streets_x = 5;
  cfg.manhattan.streets_y = 5;
  cfg.manhattan.block = 300.0;
  cfg.vehicles = 120;
  cfg.duration_s = 60.0;
  cfg.traffic.flows = 8;
  cfg.traffic.rate_pps = 1.0;
  cfg.traffic.start_s = 5.0;
  cfg.traffic.stop_s = 45.0;
  cfg.traffic.min_pair_distance_m = 500.0;
  return cfg;
}

constexpr int kSweepSeeds = 2;  ///< matrix seeds per paper-sweep input

/// bench_table1_summary's matrix, one ExperimentSpec per regime (sparse,
/// normal and congested highway, urban grid, rural highway without RSUs).
/// Input `seed` runs matrix seeds kSweepSeeds*seed + 0..kSweepSeeds-1, so
/// consecutive inputs never share a run.
std::vector<vanet::sim::ExperimentSpec> paper_sweep_specs(
    std::uint64_t seed, const Overrides& sets) {
  const std::array<std::pair<ScenarioConfig, bool>, 5> regimes = {{
      {table1_highway(6, 30.0), false},
      {table1_highway(30, 30.0), false},
      {table1_highway(70, 12.0), false},
      {table1_urban(), false},
      {table1_highway(4, 30.0), true},
  }};
  std::vector<vanet::sim::ExperimentSpec> specs;
  for (const auto& [base, rural] : regimes) {
    vanet::sim::ExperimentSpec spec;
    spec.base = base;
    for (const auto& [k, v] : sets) vanet::sim::config_set(spec.base, k, v);
    spec.protocols = {"flooding", "pbr", "drr", "greedy", "yan"};
    spec.seeds.clear();
    for (int s = 0; s < kSweepSeeds; ++s) {
      spec.seeds.push_back(seed * kSweepSeeds + static_cast<std::uint64_t>(s));
    }
    spec.protocol_overrides["drr"] = {{"rsu_count", rural ? "0" : "6"}};
    spec.profile = true;
    specs.push_back(std::move(spec));
  }
  return specs;
}

// ---------------------------------------------------------------- trace ---

enum EventClass { kTick, kTxEnd, kTxStart, kOriginate, kSend, kTimer, kClasses };
constexpr std::array<const char*, kClasses> kClassNames = {
    "tick", "tx_end", "tx_start", "originate", "send", "timer"};

struct SpanTotal {
  std::uint64_t count = 0;
  double total_s = 0.0;
};

/// Layer ledger summed over every scenario of one input.
struct Ledger {
  std::array<SpanTotal, kClasses> events;  ///< whole events, children included
  std::array<double, kClasses> child_s{};  ///< child spans inside each class
  SpanTotal hello_rx, routing_rx, routing_fail;
  double hello_rx_bytes = 0.0;
  std::vector<double> event_us;
  std::vector<double> delay_ms;  ///< first deliveries only, as Metrics counts
  double run_s = 0.0;            ///< traced Scenario::run() wall time
  double map_build_s = 0.0;
  double mobility_populate_s = 0.0;
  vanet::net::NetCounters net;
  std::uint64_t discoveries = 0;
  std::uint64_t route_breaks = 0;
  std::uint64_t dropped_no_route = 0;
  double delay_ms_p95_hint_sum = 0.0;  ///< over runs that delivered
  std::uint64_t runs_with_delivery = 0;
};

/// Full spans (name, start, end, parent) of the events in one simulated
/// window, kept in memory and written as JSONL once the input finishes. The
/// event cap keeps a flood storm from turning the log into the workload.
struct SpanLog {
  static constexpr double kWindowStart = 1.0;  ///< simulated seconds, where
  static constexpr double kWindowEnd = 1.5;    ///< single-run traffic starts
  static constexpr std::uint64_t kMaxEvents = 5000;
  double origin = 0.0;  ///< wall clock at run start
  std::uint64_t events = 0;
  std::ostringstream out;
  std::uint64_t next_id = 0;
};

/// Outside-in instrumentation of one serial Scenario. Every hook reproduces
/// the dispatch Scenario::build_protocols installs, so a traced run has the
/// untraced run's report digest. Declare it after its Scenario: the
/// scenario keeps the hooks, and must not run again once the tracer is gone.
class Tracer {
 public:
  Tracer(Scenario& sc, Ledger& ledger, SpanLog* log)
      : sc_(sc), ledger_(ledger), log_(log) {
    if (sc.is_sharded()) {
      throw std::invalid_argument("--trace needs the serial engine");
    }
    install();
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer() { sc_.simulator().set_abort_check(nullptr); }

  /// Scenario::run(), traced; returns its wall time.
  double run() {
    const double t0 = now_s();
    if (log_ != nullptr) log_->origin = t0;
    last_ = t0;
    snapshot();
    sc_.run();
    const double wall = now_s() - t0;
    ledger_.run_s += wall;
    return wall;
  }

 private:
  struct Child {
    const char* name;
    double start, end;
  };

  void install() {
    vanet::core::Simulator& sim = sc_.simulator();
    vanet::net::Network& net = sc_.network();
    vanet::net::HelloService* hello = sc_.hello();
    vanet::sim::Metrics& metrics = sc_.metrics();
    sc_.mobility().add_tick_listener(
        [this](vanet::core::SimTime) { tick_ = true; });
    for (const vanet::net::NodeId id : net.node_ids()) {
      vanet::routing::RoutingProtocol& proto = sc_.protocol_at(id);
      net.set_receive_handler(
          id, [this, hello, &proto, id](const vanet::net::Packet& p) {
            const double t0 = now_s();
            if (p.kind == vanet::net::PacketKind::kHello) {
              if (hello != nullptr) hello->on_frame(id, p);
              ledger_.hello_rx_bytes += static_cast<double>(p.size_bytes);
              close_child(ledger_.hello_rx, "net.hello.rx", t0);
              return;
            }
            proto.handle_frame(p);
            close_child(ledger_.routing_rx, "routing.rx", t0);
          });
      net.set_unicast_fail_handler(
          id, [this, &proto](const vanet::net::Packet& p) {
            const double t0 = now_s();
            proto.handle_unicast_failure(p);
            close_child(ledger_.routing_fail, "routing.fail", t0);
          });
      proto.set_deliver_callback(
          [this, &sim, &metrics](const vanet::net::Packet& p) {
            if (metrics.record_delivery(p.flow, p.seq, p.created_at, sim.now(),
                                        p.hops)) {
              ledger_.delay_ms.push_back((sim.now() - p.created_at).as_millis());
            }
          });
    }
    // Polled after every dispatched event: the event boundary.
    sim.set_abort_check([this] { on_event_end(); }, 1);
  }

  void close_child(SpanTotal& span, const char* name, double t0) {
    const double t1 = now_s();
    ++span.count;
    span.total_s += t1 - t0;
    child_s_ += t1 - t0;
    if (in_window_) children_.push_back({name, t0, t1});
  }

  std::uint64_t rx_attempts() const {
    const vanet::net::NetCounters& c = sc_.network().counters();
    return c.receptions_ok + c.receptions_collided + c.receptions_faded +
           c.unicast_retries + c.unicast_failures;
  }

  void snapshot() {
    const vanet::net::NetCounters& c = sc_.network().counters();
    prev_rx_ = rx_attempts();
    prev_sent_ = c.frames_sent;
    prev_enqueued_ = c.frames_enqueued;
    prev_originated_ = sc_.metrics().originated();
  }

  // Classes an event by what it changed, first match wins: a mobility tick,
  // a frame end (reception attempts or a unicast verdict), a frame start, an
  // application packet, an enqueue; anything else is a timer. A frame end
  // that reached no receiver counts as a timer.
  EventClass classify() const {
    const vanet::net::NetCounters& c = sc_.network().counters();
    if (tick_) return kTick;
    if (rx_attempts() != prev_rx_) return kTxEnd;
    if (c.frames_sent != prev_sent_) return kTxStart;
    if (sc_.metrics().originated() != prev_originated_) return kOriginate;
    if (c.frames_enqueued != prev_enqueued_) return kSend;
    return kTimer;
  }

  void on_event_end() {
    const double t = now_s();
    const EventClass k = classify();
    ledger_.events[k].count += 1;
    ledger_.events[k].total_s += t - last_;
    ledger_.child_s[k] += child_s_;
    ledger_.event_us.push_back((t - last_) * 1e6);
    if (in_window_) write_spans(k, t);
    const double sim_t = sc_.simulator().now().as_seconds();
    in_window_ = log_ != nullptr && sim_t >= SpanLog::kWindowStart &&
                 sim_t < SpanLog::kWindowEnd &&
                 log_->events < SpanLog::kMaxEvents;
    children_.clear();
    child_s_ = 0.0;
    tick_ = false;
    snapshot();
    // The hook's own work is left out of the next event's span.
    last_ = now_s();
  }

  void write_spans(EventClass k, double t) {
    ++log_->events;
    const std::uint64_t parent = log_->next_id++;
    const auto us = [this](double w) { return (w - log_->origin) * 1e6; };
    log_->out << "{\"id\":" << parent << ",\"name\":\"event." << kClassNames[k]
              << "\",\"start_us\":" << us(last_) << ",\"end_us\":" << us(t)
              << ",\"parent\":null}\n";
    for (const Child& c : children_) {
      log_->out << "{\"id\":" << log_->next_id++ << ",\"name\":\"" << c.name
                << "\",\"start_us\":" << us(c.start)
                << ",\"end_us\":" << us(c.end) << ",\"parent\":" << parent
                << "}\n";
    }
  }

  Scenario& sc_;
  Ledger& ledger_;
  SpanLog* log_;
  double last_ = 0.0;
  double child_s_ = 0.0;
  bool tick_ = false;
  bool in_window_ = false;
  std::vector<Child> children_;
  std::uint64_t prev_rx_ = 0;
  std::uint64_t prev_sent_ = 0;
  std::uint64_t prev_enqueued_ = 0;
  std::uint64_t prev_originated_ = 0;
};

/// Times the two set-up stages Scenario's constructor starts with,
/// standalone, on a throwaway RNG of the same seed.
void time_setup_stages(const ScenarioConfig& cfg, Ledger& ledger) {
  const double t0 = now_s();
  const auto graph = vanet::sim::build_road_graph(cfg);
  const double t1 = now_s();
  vanet::core::RngManager rngs{cfg.seed};
  const auto model = vanet::sim::make_mobility_model(cfg, graph, rngs, nullptr);
  const double t2 = now_s();
  ledger.map_build_s += t1 - t0;
  ledger.mobility_populate_s += t2 - t1;
}

void fold_counters(Scenario& sc, Ledger& ledger) {
  const vanet::net::NetCounters& c = sc.network().counters();
  vanet::net::NetCounters& n = ledger.net;
  n.frames_sent += c.frames_sent;
  n.frames_dropped_queue += c.frames_dropped_queue;
  n.receptions_ok += c.receptions_ok;
  n.receptions_collided += c.receptions_collided;
  n.receptions_faded += c.receptions_faded;
  n.unicast_retries += c.unicast_retries;
  n.unicast_failures += c.unicast_failures;
  n.bytes_sent += c.bytes_sent;
  n.data_frames_sent += c.data_frames_sent;
  const vanet::routing::ProtocolEvents& e = sc.events();
  ledger.discoveries += e.discoveries_started;
  ledger.route_breaks += e.route_breaks;
  ledger.dropped_no_route += e.data_dropped_no_route;
}

// --------------------------------------------------------------- output ---

/// Flat JSON object writer (numbers at full precision).
class JsonObject {
 public:
  JsonObject() { os_.precision(17); }
  JsonObject& num(const char* key, double v) {
    key_(key);
    os_ << v;
    return *this;
  }
  JsonObject& num(const char* key, std::uint64_t v) {
    key_(key);
    os_ << v;
    return *this;
  }
  JsonObject& str(const char* key, const std::string& v) {
    key_(key);
    os_ << '"' << vanet::sim::json_escape(v) << '"';
    return *this;
  }
  JsonObject& raw(const char* key, const std::string& json) {
    key_(key);
    os_ << json;
    return *this;
  }
  std::string done() const { return first_ ? "{}" : os_.str() + "}"; }

 private:
  void key_(const char* key) {
    os_ << (first_ ? "{" : ",") << '"' << key << "\":";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

std::string span_json(const SpanTotal& s) {
  return JsonObject{}.num("count", s.count).num("total_s", s.total_s).done();
}

std::string ledger_json(const Ledger& l) {
  JsonObject events;
  for (std::size_t k = 0; k < kClasses; ++k) {
    events.raw(kClassNames[k], JsonObject{}
                                   .num("count", l.events[k].count)
                                   .num("total_s", l.events[k].total_s)
                                   .num("child_s", l.child_s[k])
                                   .done());
  }
  const vanet::net::NetCounters& n = l.net;
  const std::string net = JsonObject{}
                              .num("frames_sent", n.frames_sent)
                              .num("frames_dropped_queue", n.frames_dropped_queue)
                              .num("receptions_ok", n.receptions_ok)
                              .num("receptions_collided", n.receptions_collided)
                              .num("receptions_faded", n.receptions_faded)
                              .num("unicast_retries", n.unicast_retries)
                              .num("unicast_failures", n.unicast_failures)
                              .num("bytes_sent", n.bytes_sent)
                              .num("data_frames_sent", n.data_frames_sent)
                              .done();
  const auto pct = [](const std::vector<double>& v, double q) {
    return vanet::analysis::percentile(v, q);
  };
  const double hint =
      l.runs_with_delivery > 0
          ? l.delay_ms_p95_hint_sum / static_cast<double>(l.runs_with_delivery)
          : 0.0;
  return JsonObject{}
      .raw("events", events.done())
      .raw("hello_rx", span_json(l.hello_rx))
      .raw("routing_rx", span_json(l.routing_rx))
      .raw("routing_fail", span_json(l.routing_fail))
      .num("hello_rx_bytes", l.hello_rx_bytes)
      .num("event_us_p50", pct(l.event_us, 0.50))
      .num("event_us_p99", pct(l.event_us, 0.99))
      .num("delay_samples", static_cast<std::uint64_t>(l.delay_ms.size()))
      .num("delay_ms_p50", pct(l.delay_ms, 0.50))
      .num("delay_ms_p95", pct(l.delay_ms, 0.95))
      .num("delay_ms_p99", pct(l.delay_ms, 0.99))
      .num("delay_ms_p95_hint", hint)
      .num("run_s", l.run_s)
      .num("map_build_s", l.map_build_s)
      .num("mobility_populate_s", l.mobility_populate_s)
      .raw("net", net)
      .num("discoveries", l.discoveries)
      .num("route_breaks", l.route_breaks)
      .num("dropped_no_route", l.dropped_no_route)
      .done();
}

// -------------------------------------------------------------- running ---

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int jobs = 4;
  bool trace = false;
  std::string spans_file;
  Overrides sets;
};

/// What every workload reports, single run or sweep alike.
struct Result {
  std::vector<std::string> digests;  ///< report digests, matrix order
  double setup_s = 0.0;
  double run_s = 0.0;   ///< Scenario::run(), or the whole engine run
  double busy_s = 0.0;  ///< summed Scenario::run() time of every run
  /// Summed time of one construction, run() and report per run: what a
  /// one-worker engine spends on the runs of this thread.
  double worker_s = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t sched_slab_allocs = 0;
  std::uint64_t sched_peak_pending = 0;
};

void record_report(const vanet::sim::ScenarioReport& r, Result& out) {
  out.digests.push_back(vanet::sim::report_digest(r));
  out.originated += r.originated;
  out.delivered += r.delivered;
}

constexpr int kSetupRepeats = 5;

/// Median Scenario construction time over kSetupRepeats constructions; the
/// last one is kept in `keep`. Only one scenario is alive at a time, so peak
/// RSS is that of one.
double timed_setup(const ScenarioConfig& cfg, std::unique_ptr<Scenario>& keep) {
  std::array<double, kSetupRepeats> times{};
  for (double& t : times) {
    keep.reset();
    const double t0 = now_s();
    keep = std::make_unique<Scenario>(cfg);
    t = now_s() - t0;
  }
  std::sort(times.begin(), times.end());
  return times[kSetupRepeats / 2];
}

/// Builds, runs and reports one scenario on the calling thread, traced when
/// `ledger` is set. Returns its Scenario::run() wall time.
double run_scenario(const ScenarioConfig& cfg, Result& out, Ledger* ledger,
                    SpanLog* log) {
  if (ledger != nullptr) time_setup_stages(cfg, *ledger);
  std::unique_ptr<Scenario> sc;
  const double setup_s = timed_setup(cfg, sc);
  out.setup_s += setup_s;
  const double t_built = now_s();
  double run_s = 0.0;
  if (ledger != nullptr) {
    Tracer tracer{*sc, *ledger, log};
    run_s = tracer.run();
    fold_counters(*sc, *ledger);
  } else {
    const double t0 = now_s();
    sc->run();
    run_s = now_s() - t0;
  }
  out.runs += 1;
  out.busy_s += run_s;
  out.events += sc->events_dispatched();
  const vanet::core::EventQueue::AllocStats sched = sc->scheduler_stats();
  out.sched_slab_allocs += sched.slab_allocations;
  out.sched_peak_pending =
      std::max<std::uint64_t>(out.sched_peak_pending, sched.peak_pending);
  const vanet::sim::ScenarioReport report = sc->report();
  record_report(report, out);
  if (ledger != nullptr && report.delivered > 0) {
    ledger->delay_ms_p95_hint_sum += report.delay_ms_p95_hint;
    ++ledger->runs_with_delivery;
  }
  out.worker_s += setup_s + (now_s() - t_built);
  return run_s;
}

/// Collects a sweep's report digests and run times in matrix order.
class SweepSink final : public vanet::sim::ReportSink {
 public:
  explicit SweepSink(Result& out) : out_(out) {}
  void on_run(const vanet::sim::RunRecord& rec) override {
    record_report(rec.report, out_);
    out_.busy_s += rec.wall_s;
    out_.events += rec.events_dispatched;
    out_.runs += 1;
  }

 private:
  Result& out_;
};

/// Returns the wall time of the run phase (the engine run when untraced).
double run_paper_sweep(const Options& opt, Result& out, Ledger* ledger,
                       SpanLog* log) {
  const std::vector<vanet::sim::ExperimentSpec> specs =
      paper_sweep_specs(opt.seed, opt.sets);
  if (ledger != nullptr) {
    // Traced: every run of the matrix on this thread, in matrix order, so
    // the hooks see each Scenario. The digests must equal the engine's.
    for (const vanet::sim::ExperimentSpec& spec : specs) {
      for (const vanet::sim::ExperimentCell& cell : vanet::sim::expand(spec)) {
        for (const std::uint64_t seed : spec.seeds) {
          ScenarioConfig cfg = cell.config;
          cfg.seed = seed;
          out.run_s += run_scenario(cfg, out, ledger, log);
          log = nullptr;  // spans of the first run only
        }
      }
    }
    return out.run_s;
  }
  // Set-up: one Scenario per matrix cell, built on this thread.
  for (const vanet::sim::ExperimentSpec& spec : specs) {
    for (const vanet::sim::ExperimentCell& cell : vanet::sim::expand(spec)) {
      ScenarioConfig cfg = cell.config;
      cfg.seed = spec.seeds.front();
      std::unique_ptr<Scenario> sc;
      out.setup_s += timed_setup(cfg, sc);
    }
  }
  vanet::sim::ExperimentEngine engine{opt.jobs};
  SweepSink sink{out};
  const double t0 = now_s();
  for (const vanet::sim::ExperimentSpec& spec : specs) {
    const vanet::sim::ExperimentResult result = engine.run(spec, sink);
    if (!result.failures.empty()) {
      const vanet::sim::FailureRecord& f = result.failures.front();
      throw std::runtime_error("sweep run failed: " + f.protocol + " seed " +
                               std::to_string(f.seed) + ": " + f.error);
    }
  }
  out.run_s = now_s() - t0;
  return out.run_s;
}

std::string run_input(const Options& opt) {
  Result out;
  Ledger ledger;
  SpanLog log;
  Ledger* traced = opt.trace ? &ledger : nullptr;
  SpanLog* spans = opt.trace && !opt.spans_file.empty() ? &log : nullptr;
  const bool sweep = opt.workload == "paper-sweep";
  double engine_wall_s = 0.0;
  if (sweep) {
    engine_wall_s = run_paper_sweep(opt, out, traced, spans);
  } else {
    ScenarioConfig cfg = single_run_config(opt.workload);
    cfg.seed = opt.seed;
    for (const auto& [k, v] : opt.sets) vanet::sim::config_set(cfg, k, v);
    out.run_s = run_scenario(cfg, out, traced, spans);
    engine_wall_s = out.worker_s;
  }
  const int workers = sweep && !opt.trace ? opt.jobs : 1;

  JsonObject json;
  json.str("workload", opt.workload)
      .num("seed", opt.seed)
      .str("digest", input_digest(out.digests))
      .num("runs", out.runs)
      .num("setup_s", out.setup_s)
      .num("run_s", out.run_s)
      .num("busy_s", out.busy_s)
      .num("engine_wall_s", engine_wall_s)
      .num("workers", static_cast<std::uint64_t>(workers))
      .num("events", out.events)
      .num("originated", out.originated)
      .num("delivered", out.delivered)
      .num("sched_slab_allocs", out.sched_slab_allocs)
      .num("sched_peak_pending", out.sched_peak_pending)
      .num("peak_rss_mb", peak_rss_mb());
  if (opt.trace) json.raw("trace", ledger_json(ledger));
  if (spans != nullptr) {
    std::ofstream f{opt.spans_file};
    f << log.out.str();
    if (!f) throw std::runtime_error("cannot write " + opt.spans_file);
  }
  return json.done();
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      const auto v = vanet::sim::parse_int_checked(value);
      if (!v || *v < 0) return false;
      opt.seed = static_cast<std::uint64_t>(*v);
    } else if (arg == "--jobs") {
      const auto v = vanet::sim::parse_int_checked(value);
      if (!v || *v < 1 || *v > 64) return false;
      opt.jobs = static_cast<int>(*v);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (arg == "--spans") {
      opt.spans_file = value;
    } else if (arg == "--set") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) return false;
      opt.sets.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: bench_workloads --workload NAME --seed N [--jobs N] "
                 "[--trace 0|1] [--spans FILE] [--set key=value ...]\n";
    return 2;
  }
  try {
    std::cout << run_input(opt) << "\n";
  } catch (const std::exception& e) {
    std::cerr << "bench_workloads: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

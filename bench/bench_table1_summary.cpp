// E7 / Table I — "A summary of the routing protocols in VANET".
//
// The paper's summary is qualitative; this bench makes every cell
// measurable. One representative protocol per category runs over five
// traffic regimes with identical flows:
//   sparse / normal / congested highway, urban grid, and rural (sparse, no
//   infrastructure). Reported: PDR (reliability), delay, control+hello
//   overhead, data transmissions per delivery, and route breaks.
//
// Each regime is one ExperimentSpec (protocol list = the five category
// representatives); the infrastructure representative gets its RSUs via a
// protocol_overrides entry instead of a hand-rolled special case, and a
// custom ReportSink keeps the bench's historic table layout. The engine
// parallelises across all cores with bit-identical aggregates.
//
// Paper cells under test:
//   connectivity  — "simple"            / "overhead, broadcasting storm"
//   mobility      — "reliable,accurate" / "overhead, not working in sparse/congested"
//   infrastructure— "reliable,accurate" / "expensive, not working in rural area"
//   location      — "simple, direct"    / "overhead, not optimal"
//   probability   — "efficient"         / "not optimal, only for certain traffic"
#include <iostream>
#include <map>
#include <string>

#include "sim/experiment.h"
#include "sim/table.h"

namespace {

struct Regime {
  const char* name;
  vanet::sim::ScenarioConfig cfg;
};

vanet::sim::ScenarioConfig highway(int per_direction, double desired_speed) {
  vanet::sim::ScenarioConfig cfg;
  cfg.mobility = vanet::sim::MobilityKind::kHighway;
  cfg.highway.length = 4000.0;
  cfg.highway.idm.desired_speed = desired_speed;
  cfg.vehicles_per_direction = per_direction;
  cfg.comm_range_m = 250.0;
  cfg.duration_s = 60.0;
  cfg.traffic.flows = 8;
  cfg.traffic.rate_pps = 1.0;
  cfg.traffic.start_s = 5.0;
  cfg.traffic.stop_s = 45.0;
  cfg.traffic.min_pair_distance_m = 700.0;
  return cfg;
}

/// The bench's historic per-regime table, fed by engine aggregates.
class Table1Sink final : public vanet::sim::ReportSink {
 public:
  void on_aggregate(const vanet::sim::AggregateRecord& rec) override {
    using namespace vanet;
    static const std::map<std::string, std::string> kCategory = {
        {"flooding", "connectivity"}, {"pbr", "mobility"},
        {"drr", "infrastructure"},    {"greedy", "location"},
        {"yan", "probability"},
    };
    const sim::AggregateReport& agg = rec.agg;
    std::uint64_t data_tx = 0;
    for (const auto& run : agg.runs) data_tx += run.data_frames;
    const double per = agg.total_delivered > 0
                           ? static_cast<double>(agg.total_delivered)
                           : 1.0;
    table_.add_row(
        {kCategory.at(rec.protocol), rec.protocol,
         sim::fmt_pm(agg.pdr.mean(), agg.pdr.ci95_half_width(), 3),
         sim::fmt(agg.delay_ms.mean(), 1),
         sim::fmt(agg.control_per_delivered.mean(), 1),
         sim::fmt(data_tx / per, 1), sim::fmt(agg.route_breaks.mean(), 1),
         sim::fmt(agg.observed_lifetime_s.mean(), 1)});
  }
  void end() override { table_.print(std::cout); }

 private:
  vanet::sim::Table table_{{"category", "protocol", "PDR", "delay ms",
                            "ctrl+hello/deliv", "data tx/deliv",
                            "route breaks", "obs. route life s"}};
};

}  // namespace

int main() {
  using namespace vanet;
  std::cout << "# Table I — category summary, measured "
               "(one representative per category; 3 seeds; identical flows "
               "per regime)\n";

  std::vector<Regime> regimes;
  regimes.push_back({"sparse highway (6 veh/dir)", highway(6, 30.0)});
  regimes.push_back({"normal highway (30 veh/dir)", highway(30, 30.0)});
  regimes.push_back({"congested highway (70 veh/dir)", highway(70, 12.0)});
  {
    sim::ScenarioConfig cfg;
    cfg.mobility = sim::MobilityKind::kManhattan;
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
    regimes.push_back({"urban grid (120 veh)", cfg});
  }
  regimes.push_back({"rural sparse, no infra (4 veh/dir)", highway(4, 30.0)});

  sim::ExperimentEngine engine{0};  // all cores; output order is fixed anyway
  for (const auto& regime : regimes) {
    std::cout << "\n## " << regime.name << "\n\n";
    sim::ExperimentSpec spec;
    spec.base = regime.cfg;
    spec.protocols = {"flooding", "pbr", "drr", "greedy", "yan"};
    spec.seeds = {1, 2, 3};
    spec.guards.capture = false;  // any failed run aborts the bench
    // Table I: infrastructure exists everywhere except the rural regime.
    const bool rural = std::string(regime.name).find("rural") == 0;
    spec.protocol_overrides["drr"] = {{"rsu_count", rural ? "0" : "6"}};
    Table1Sink sink;
    engine.run(spec, sink);
  }

  std::cout <<
      "\n## Mapping to Table I\n"
      "- connectivity: zero ctrl overhead (simple) but highest data "
      "tx/delivery, collapsing in congestion (broadcast storm).\n"
      "- mobility: strong PDR in normal traffic, hello overhead visible, "
      "degrades in sparse traffic (prediction cannot bridge a void).\n"
      "- infrastructure: best PDR where RSUs exist, backbone does the work; "
      "rural row (no RSU) collapses to greedy behaviour.\n"
      "- location: cheap and direct (lowest delay), hello overhead, drops at "
      "local maxima (not optimal).\n"
      "- probability: efficient (few control frames per delivery via ticket "
      "probing), weaker in regimes violating its model assumptions.\n";
  return 0;
}

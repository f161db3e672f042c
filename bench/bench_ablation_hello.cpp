// E11 — ablation of the hello/beacon interval (Sec. IV-A).
//
// "Mobility based routing has extra communication overhead ... vehicles have
// to know the status of their neighbors." The beacon interval trades that
// overhead against neighbor-table freshness: stale tables mean wrong greedy
// choices and broken predictions.
#include <iostream>

#include "sim/experiment.h"
#include "sim/table.h"

int main() {
  using namespace vanet;
  std::cout << "# Ablation — hello interval vs neighborhood awareness "
               "(4 km highway, 30 veh/dir)\n\n";

  sim::Table table(
      {"protocol", "hello interval s", "PDR", "delay ms", "hello tx/s/veh",
       "route breaks"});
  // The three seeds of one configuration, aggregated; any failed run aborts
  // the bench.
  sim::ExperimentEngine engine{0};  // all cores; output order is fixed anyway
  auto aggregate = [&engine](const sim::ScenarioConfig& cfg) {
    sim::ExperimentSpec spec;
    spec.base = cfg;
    spec.seeds = {1, 2, 3};
    spec.guards.capture = false;
    return engine.run(spec).cells.at(0).agg;
  };
  for (const char* protocol : {"greedy", "pbr"}) {
    for (double interval : {0.5, 1.0, 2.0, 4.0}) {
      sim::ScenarioConfig cfg;
      cfg.mobility = sim::MobilityKind::kHighway;
      cfg.highway.length = 4000.0;
      cfg.vehicles_per_direction = 30;
      cfg.comm_range_m = 250.0;
      cfg.duration_s = 50.0;
      cfg.protocol = protocol;
      cfg.hello.interval = core::SimTime::seconds(interval);
      cfg.hello.expiry = core::SimTime::seconds(3.0 * interval);
      cfg.traffic.flows = 8;
      cfg.traffic.rate_pps = 1.0;
      cfg.traffic.start_s = 5.0;
      cfg.traffic.stop_s = 40.0;
      cfg.traffic.min_pair_distance_m = 700.0;

      const sim::AggregateReport agg = aggregate(cfg);
      std::uint64_t hello = 0;
      for (const auto& run : agg.runs) hello += run.hello_frames;
      const double veh_seconds = 60.0 * 50.0 * 3.0;  // vehicles x s x seeds
      table.add_row({protocol, sim::fmt(interval, 1), sim::fmt(agg.pdr.mean(), 3),
                     sim::fmt(agg.delay_ms.mean(), 1),
                     sim::fmt(hello / veh_seconds, 2),
                     sim::fmt(agg.route_breaks.mean(), 1)});
    }
  }
  table.print(std::cout);

  std::cout << "\nShape check (paper): faster beacons cost linearly more "
               "frames but keep neighbor tables fresh (fewer bad forwards); "
               "slow beacons starve the position knowledge these protocols "
               "depend on — the \"extra communication overhead\" Table I "
               "charges mobility/location categories with is a real knob.\n";
  return 0;
}

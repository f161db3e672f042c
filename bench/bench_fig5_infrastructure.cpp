// E5 / Fig. 5 + Sec. V — infrastructure-assisted routing.
//
// Sparse highways disconnect; RSUs with a wired backbone (DRR's virtual
// equivalent nodes) and bus ferries bridge the gaps. Table I's claims:
// infrastructure routing is "reliable, accurate" but "expensive, not working
// in rural area" (here: rsu = 0).
#include <iostream>

#include "sim/experiment.h"
#include "sim/table.h"

int main() {
  using namespace vanet;
  std::cout << "# Fig. 5 / Sec. V — RSU/bus-assisted delivery vs density "
               "(6 km highway, 6 flows x 1 pps, 80 s)\n\n";

  struct Variant {
    const char* label;
    const char* protocol;
    int rsus;
    int buses;
  };
  const Variant variants[] = {
      {"greedy (pure ad hoc)", "greedy", 0, 0},
      {"drr, no RSU (rural)", "drr", 0, 0},
      {"drr + 3 RSU", "drr", 3, 0},
      {"drr + 6 RSU", "drr", 6, 0},
      {"bus + 4 ferries", "bus", 0, 4},
  };

  sim::Table table({"veh/dir", "variant", "PDR", "reachable bound",
                    "delay ms", "backbone frames", "route breaks"});
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
  for (int density : {4, 8, 16}) {
    for (const auto& v : variants) {
      sim::ScenarioConfig cfg;
      cfg.mobility = sim::MobilityKind::kHighway;
      cfg.highway.length = 6000.0;
      cfg.vehicles_per_direction = density;
      cfg.comm_range_m = 250.0;
      cfg.duration_s = 80.0;
      cfg.protocol = v.protocol;
      cfg.rsu_count = v.rsus;
      cfg.bus_count = v.buses;
      cfg.traffic.flows = 6;
      cfg.traffic.rate_pps = 1.0;
      cfg.traffic.start_s = 5.0;
      cfg.traffic.stop_s = 60.0;
      cfg.traffic.min_pair_distance_m = 1000.0;

      const sim::AggregateReport agg = aggregate(cfg);
      table.add_row({sim::fmt_int(density), v.label, sim::fmt(agg.pdr.mean(), 3),
                     sim::fmt(agg.reachable_fraction.mean(), 3),
                     sim::fmt(agg.delay_ms.mean(), 1),
                     sim::fmt_int(agg.total_backbone_frames),
                     sim::fmt(agg.route_breaks.mean(), 1)});
    }
  }
  table.print(std::cout);

  std::cout
      << "\nShape check (paper): at sparse densities pure ad hoc collapses; "
         "RSUs raise PDR sharply (the backbone carries the gap) and more "
         "RSUs help more; without RSUs (rural) DRR degrades toward plain "
         "greedy; bus ferries trade delay for delivery.\n"
         "Calibration: 'reachable bound' is the oracle fraction of "
         "(flow,second) samples with an instantaneous multi-hop path. "
         "Greedy's PDR ~= the bound (it delivers whatever physics allows at "
         "send time); buffering protocols EXCEED the instantaneous bound by "
         "waiting out disconnection — the essence of store-carry-forward.\n";
  return 0;
}

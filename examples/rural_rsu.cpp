// Sec. V's story, measured: on a sparse rural highway the ad hoc network
// disconnects; roadside units with a wired backbone (DRR) and bus ferries
// (Kitani) restore delivery — and Table I's caveat "not working in rural
// area" appears when the infrastructure is absent.
//
//   ./build/examples/rural_rsu
#include <iostream>

#include "sim/experiment.h"
#include "sim/table.h"

int main() {
  using namespace vanet;

  auto base = [] {
    sim::ScenarioConfig cfg;
    cfg.mobility = sim::MobilityKind::kHighway;
    cfg.highway.length = 8000.0;
    cfg.vehicles_per_direction = 6;  // one vehicle per ~1.3 km: disconnected
    cfg.comm_range_m = 250.0;
    cfg.duration_s = 120.0;
    cfg.traffic.flows = 6;
    cfg.traffic.rate_pps = 0.5;
    cfg.traffic.start_s = 10.0;
    cfg.traffic.stop_s = 90.0;
    cfg.traffic.min_pair_distance_m = 1500.0;
    return cfg;
  };

  struct Variant {
    const char* label;
    const char* protocol;
    int rsus;
    int buses;
  };
  const Variant variants[] = {
      {"greedy, no infrastructure", "greedy", 0, 0},
      {"DRR, no RSUs (rural)", "drr", 0, 0},
      {"DRR + 4 RSUs", "drr", 4, 0},
      {"DRR + 8 RSUs", "drr", 8, 0},
      {"bus ferries x 3", "bus", 0, 3},
  };

  // Three seeds per variant on the experiment engine; any failed run throws.
  sim::ExperimentEngine engine{0};  // all cores; output order is fixed anyway
  auto aggregate = [&engine](const sim::ScenarioConfig& cfg) {
    sim::ExperimentSpec spec;
    spec.base = cfg;
    spec.seeds = {1, 2, 3};
    spec.guards.capture = false;
    return engine.run(spec).cells.at(0).agg;
  };

  std::cout << "# Sparse rural highway (12 vehicles on 8 km): who delivers?\n\n";
  sim::Table table({"variant", "PDR", "mean delay ms", "backbone frames"});
  for (const auto& v : variants) {
    sim::ScenarioConfig cfg = base();
    cfg.protocol = v.protocol;
    cfg.rsu_count = v.rsus;
    cfg.bus_count = v.buses;
    const sim::AggregateReport agg = aggregate(cfg);
    table.add_row({v.label,
                   sim::fmt_pm(agg.pdr.mean(), agg.pdr.ci95_half_width(), 3),
                   sim::fmt(agg.delay_ms.mean(), 1),
                   sim::fmt_int(agg.total_backbone_frames)});
  }
  table.print(std::cout);

  std::cout << "\nReading: with 1.3 km between cars and 250 m radios, pure "
               "ad hoc forwarding has nothing to relay through. RSUs bridge "
               "the voids over the wired backbone (cheap delay); ferries "
               "physically carry packets (seconds of delay, but delivery). "
               "Remove the RSUs and DRR is as stranded as greedy — Table I's "
               "rural caveat.\n";
  return 0;
}

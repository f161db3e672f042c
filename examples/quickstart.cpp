// Quickstart: build a 4 km two-lane bidirectional highway with 60 vehicles
// per direction, run AODV and greedy over identical traffic, and print the
// headline metrics. ~5 seconds of wall clock.
//
//   ./build/examples/quickstart
#include <iostream>

#include "sim/experiment.h"
#include "sim/table.h"

int main() {
  using namespace vanet;

  // One experiment: the base config x two protocols x three seeds.
  sim::ExperimentSpec spec;
  spec.base.mobility = sim::MobilityKind::kHighway;
  spec.base.highway.length = 4000.0;
  spec.base.highway.lanes_per_direction = 2;
  spec.base.vehicles_per_direction = 60;
  spec.base.comm_range_m = 250.0;
  spec.base.duration_s = 60.0;
  spec.base.traffic.flows = 8;
  spec.base.traffic.rate_pps = 2.0;
  spec.base.traffic.start_s = 5.0;
  spec.base.traffic.stop_s = 50.0;
  spec.protocols = {"aodv", "greedy"};
  spec.seeds = {1, 2, 3};
  spec.guards.capture = false;  // a failed run throws

  std::cout << "# Quickstart: AODV vs greedy on a 4 km highway\n\n";
  sim::Table table({"protocol", "PDR", "delay ms", "hops",
                    "ctrl+hello frames/delivered", "route breaks"});
  sim::ExperimentEngine engine{0};  // all cores; output order is fixed anyway
  for (const sim::AggregateRecord& cell : engine.run(spec).cells) {
    const sim::AggregateReport& agg = cell.agg;
    table.add_row({cell.protocol, sim::fmt(agg.pdr.mean(), 3),
                   sim::fmt(agg.delay_ms.mean(), 1),
                   sim::fmt(agg.hops.mean(), 2),
                   sim::fmt(agg.control_per_delivered.mean(), 2),
                   sim::fmt(agg.route_breaks.mean(), 1)});
  }
  table.print(std::cout);
  std::cout << "\nSame seed => same flows: protocols are compared on identical "
               "traffic.\n";
  return 0;
}

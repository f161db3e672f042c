// E6 / Fig. 6 + Sec. VI — geographic-location-based routing.
//
// Zones and grid gateways suppress the duplicate load of blind flooding:
// "this method reduces the number of duplicated packets and therefore
// improves the delay and bandwidth utilization", at the cost of
// neighborhood-discovery overhead (hello) and possibly suboptimal paths.
#include <iostream>

#include "sim/experiment.h"
#include "sim/table.h"

int main() {
  using namespace vanet;
  std::cout << "# Fig. 6 / Sec. VI — geographic routing on a Manhattan grid "
               "(5x5 blocks x 300 m, 100 vehicles)\n\n";

  sim::ExperimentSpec spec;
  spec.base.mobility = sim::MobilityKind::kManhattan;
  spec.base.manhattan.streets_x = 5;
  spec.base.manhattan.streets_y = 5;
  spec.base.manhattan.block = 300.0;
  spec.base.vehicles = 100;
  spec.base.comm_range_m = 250.0;
  spec.base.duration_s = 50.0;
  spec.base.traffic.flows = 8;
  spec.base.traffic.rate_pps = 1.0;
  spec.base.traffic.start_s = 5.0;
  spec.base.traffic.stop_s = 42.0;
  spec.base.traffic.min_pair_distance_m = 500.0;
  spec.protocols = {"flooding", "zone", "grid", "greedy"};
  spec.seeds = {1, 2, 3};
  spec.guards.capture = false;  // any failed run aborts the bench

  sim::ExperimentEngine engine{0};  // all cores; output order is fixed anyway
  sim::Table table({"protocol", "PDR", "delay ms", "hops",
                    "data tx/delivered", "rx/delivered (dup load)",
                    "hello tx", "collision frac"});
  for (const sim::AggregateRecord& cell : engine.run(spec).cells) {
    const sim::AggregateReport& agg = cell.agg;
    std::uint64_t data_tx = 0, rx_ok = 0, hello_tx = 0;
    for (const auto& run : agg.runs) {
      data_tx += run.data_frames;
      rx_ok += run.receptions_ok;
      hello_tx += run.hello_frames;
    }
    const double per = agg.total_delivered > 0
                           ? static_cast<double>(agg.total_delivered)
                           : 1.0;
    table.add_row({cell.protocol, sim::fmt(agg.pdr.mean(), 3),
                   sim::fmt(agg.delay_ms.mean(), 1),
                   sim::fmt(agg.hops.mean(), 2), sim::fmt(data_tx / per, 1),
                   sim::fmt(rx_ok / per, 1), sim::fmt_int(hello_tx),
                   sim::fmt(agg.collision_fraction.mean(), 4)});
  }
  table.print(std::cout);

  std::cout << "\nShape check (paper): zone and grid cut the duplicate load "
               "of flooding by roughly an order of magnitude (only corridor "
               "members / elected gateways relay); greedy unicast is "
               "cheapest per delivery but pays hello overhead and drops at "
               "local maxima (\"may not find the optimal routing path\").\n";
  return 0;
}

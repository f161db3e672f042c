// Cross-module integration: full scenarios asserting the survey's
// qualitative claims end to end (small scale to keep tests fast).
#include <gtest/gtest.h>

#include "core/rng.h"
#include "mobility/idm_highway.h"
#include "mobility/trace.h"
#include "sim/experiment.h"

namespace vanet::sim {
namespace {

ScenarioConfig highway_base() {
  ScenarioConfig cfg;
  cfg.mobility = MobilityKind::kHighway;
  cfg.highway.length = 3000.0;
  cfg.vehicles_per_direction = 30;
  cfg.comm_range_m = 250.0;
  cfg.duration_s = 40.0;
  cfg.traffic.flows = 6;
  cfg.traffic.rate_pps = 1.0;
  cfg.traffic.start_s = 4.0;
  cfg.traffic.stop_s = 32.0;
  cfg.traffic.min_pair_distance_m = 500.0;
  return cfg;
}

/// `cfg` over seeds 1-3 on the engine, aggregated; a failed run throws.
AggregateReport three_seeds(const ScenarioConfig& cfg) {
  ExperimentSpec spec;
  spec.base = cfg;
  spec.seeds = {1, 2, 3};
  spec.guards.capture = false;
  return ExperimentEngine{1}.run(spec).cells.at(0).agg;
}

TEST(Integration, DenseHighwayDeliversForMostProtocols) {
  ScenarioConfig cfg = highway_base();
  for (const char* protocol : {"flooding", "aodv", "greedy", "pbr", "yan"}) {
    cfg.protocol = protocol;
    cfg.seed = 3;
    Scenario s{cfg};
    s.run();
    EXPECT_GT(s.report().pdr, 0.25) << protocol;
  }
}

TEST(Integration, FloodingCostsMoreDataFramesThanUnicastRouting) {
  ScenarioConfig cfg = highway_base();
  cfg.protocol = "flooding";
  cfg.seed = 3;
  Scenario flood{cfg};
  flood.run();
  cfg.protocol = "greedy";
  Scenario greedy{cfg};
  greedy.run();
  const auto rf = flood.report();
  const auto rg = greedy.report();
  ASSERT_GT(rf.delivered, 0u);
  ASSERT_GT(rg.delivered, 0u);
  const double flood_cost =
      static_cast<double>(rf.data_frames) / static_cast<double>(rf.delivered);
  const double greedy_cost =
      static_cast<double>(rg.data_frames) / static_cast<double>(rg.delivered);
  EXPECT_GT(flood_cost, 2.0 * greedy_cost);
}

TEST(Integration, MobilityPredictionReducesRouteBreaks) {
  // Table I: mobility-based routing is "reliable, accurate" in normal
  // traffic. PBR should see fewer route breaks per delivered packet than
  // plain AODV because it rebuilds before the predicted expiry.
  ScenarioConfig cfg = highway_base();
  const AggregateReport aodv = [&] {
    ScenarioConfig c = cfg;
    c.protocol = "aodv";
    return three_seeds(c);
  }();
  const AggregateReport pbr = [&] {
    ScenarioConfig c = cfg;
    c.protocol = "pbr";
    return three_seeds(c);
  }();
  EXPECT_GE(pbr.pdr.mean(), aodv.pdr.mean() * 0.9);
  // PBR must actually exercise its prediction machinery.
  EXPECT_GT(pbr.runs[0].preemptive_rebuilds + pbr.runs[1].preemptive_rebuilds +
                pbr.runs[2].preemptive_rebuilds,
            0u);
}

TEST(Integration, RsusRescueSparseTraffic) {
  // Table I: infrastructure routing works where sparse ad hoc fails.
  ScenarioConfig cfg = highway_base();
  cfg.vehicles_per_direction = 6;  // sparse: big inter-vehicle gaps
  cfg.traffic.min_pair_distance_m = 800.0;
  cfg.protocol = "greedy";
  const AggregateReport adhoc = three_seeds(cfg);
  cfg.protocol = "drr";
  cfg.rsu_count = 8;
  const AggregateReport assisted = three_seeds(cfg);
  EXPECT_GT(assisted.pdr.mean(), adhoc.pdr.mean() + 0.1)
      << "RSU backbone should rescue sparse traffic";
}

TEST(Integration, HelloOverheadIsAccounted) {
  // Table I charges mobility/geographic protocols with "overhead": the
  // beacon cost must be visible in the report.
  ScenarioConfig cfg = highway_base();
  cfg.protocol = "greedy";
  cfg.seed = 2;
  Scenario s{cfg};
  s.run();
  const auto r = s.report();
  // ~1 beacon/s/vehicle for 40 s and 60 vehicles => thousands of frames.
  EXPECT_GT(r.hello_frames, 1000u);
}

TEST(Integration, ZoneConfinesFloodOverhead) {
  ScenarioConfig cfg = highway_base();
  cfg.protocol = "flooding";
  cfg.seed = 4;
  Scenario flood{cfg};
  flood.run();
  cfg.protocol = "zone";
  Scenario zone{cfg};
  zone.run();
  ASSERT_GT(zone.report().delivered, 0u);
  const double flood_frames_per_delivery =
      static_cast<double>(flood.report().data_frames) /
      static_cast<double>(std::max<std::uint64_t>(1, flood.report().delivered));
  const double zone_frames_per_delivery =
      static_cast<double>(zone.report().data_frames) /
      static_cast<double>(std::max<std::uint64_t>(1, zone.report().delivered));
  EXPECT_LT(zone_frames_per_delivery, flood_frames_per_delivery);
}

TEST(Integration, OnDemandRoutesAreLoopFree) {
  // The tree-install rule must keep data and RREPs loop-free under real
  // mobility for every on-demand protocol: TTL expiries (the loop symptom)
  // must be a negligible fraction of forwards, and replies must not be
  // relayed more than a small multiple of the replies sent.
  ScenarioConfig cfg = highway_base();
  for (const char* protocol : {"aodv", "pbr", "taleb", "abedi", "gvgrid",
                               "niude", "yan", "rover"}) {
    cfg.protocol = protocol;
    cfg.seed = 6;
    Scenario s{cfg};
    s.run();
    const auto& ev = s.events();
    EXPECT_LE(ev.data_dropped_ttl, 2 + ev.data_forwarded / 50)
        << protocol << " drops too many packets to TTL (routing loop?)";
    if (ev.rrep_sent > 0) {
      EXPECT_LE(ev.rrep_relayed, 12 * ev.rrep_sent)
          << protocol << " relays replies excessively (reply loop?)";
    }
  }
}

TEST(Integration, TicketProbingProbesFarFewerNodesThanFlooding) {
  // Sec. VII: "selectively probes ... to avoid brute-force flooding probing".
  // The number of RREQ copies arriving at targets is the probe footprint.
  ScenarioConfig cfg = highway_base();
  cfg.protocol = "aodv";
  cfg.seed = 2;
  Scenario aodv{cfg};
  aodv.run();
  cfg.protocol = "yan";
  Scenario yan{cfg};
  yan.run();
  ASSERT_GT(aodv.events().rreq_at_target, 0u);
  ASSERT_GT(yan.events().rreq_at_target, 0u);
  EXPECT_LT(yan.events().rreq_at_target * 2, aodv.events().rreq_at_target);
  EXPECT_GT(yan.report().pdr, 0.3);
}

TEST(Integration, TraceScenarioMatchesSchema) {
  // Record a short highway run, replay it through the kTrace scenario path.
  mobility::HighwayConfig hw;
  hw.length = 2000.0;
  core::Rng rng{5};
  mobility::IdmHighwayModel model{hw};
  model.populate(15, rng);
  mobility::TraceRecorder rec;
  for (int step = 0; step <= 300; ++step) {
    if (step % 5 == 0) rec.capture(step * 0.1, model);
    model.step(0.1, rng);
  }
  ScenarioConfig cfg;
  cfg.mobility = MobilityKind::kTrace;
  cfg.trace = rec.trace();
  cfg.protocol = "greedy";
  cfg.duration_s = 25.0;
  cfg.traffic.flows = 4;
  cfg.traffic.start_s = 2.0;
  cfg.traffic.stop_s = 20.0;
  cfg.traffic.min_pair_distance_m = 300.0;
  Scenario s{cfg};
  EXPECT_EQ(s.vehicle_count(), 30u);
  s.run();
  EXPECT_GT(s.report().originated, 0u);
  EXPECT_GT(s.report().pdr, 0.0);
}

// Accounting identity across the whole registry: every protocol, one small
// dynamic run; delivered <= originated, PDR sane, and the harness never
// crashes regardless of category.
class RegistrySweep : public ::testing::TestWithParam<const char*> {};

TEST_P(RegistrySweep, RunsCleanAndAccountsPackets) {
  ScenarioConfig cfg = highway_base();
  cfg.duration_s = 25.0;
  cfg.traffic.stop_s = 20.0;
  cfg.vehicles_per_direction = 20;
  cfg.protocol = GetParam();
  cfg.rsu_count = 2;  // used by drr, inert for the rest
  cfg.bus_count = 2;  // used by bus
  cfg.seed = 11;
  Scenario s{cfg};
  s.run();
  const auto r = s.report();
  EXPECT_GT(r.originated, 0u);
  EXPECT_LE(r.delivered, r.originated);
  EXPECT_GE(r.pdr, 0.0);
  EXPECT_LE(r.pdr, 1.0);
  EXPECT_LE(r.collision_fraction, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, RegistrySweep,
                         ::testing::Values("flooding", "biswas", "aodv", "dsr",
                                           "dsdv", "pbr", "taleb", "abedi",
                                           "wedde", "drr", "bus", "greedy",
                                           "zone", "grid", "rover", "rear",
                                           "gvgrid", "niude", "car", "yan",
                                           "yan-ss"));

}  // namespace
}  // namespace vanet::sim

// Deterministic fault injection (sim/fault_plan.h): plan parsing, planned
// outages and road incidents end-to-end through a Scenario, seeded churn,
// the fault_active_at() oracle, and the two determinism contracts —
// fault.enabled=false perturbs nothing, and faulted runs are bit-identical
// for equal seeds regardless of worker count.
#include "sim/fault_plan.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/experiment.h"
#include "sim/report_sink.h"
#include "sim/scenario.h"

namespace vanet::sim {
namespace {

// ----------------------------------------------------------- plan syntax ---

TEST(FaultPlanParse, AcceptsValidEntries) {
  const auto plan =
      parse_fault_plan(" node:3:10:25 ; seg:2:5 ;; node:0:1.5 ");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].kind, PlannedFault::Kind::kNode);
  EXPECT_EQ(plan[0].id, 3);
  EXPECT_DOUBLE_EQ(plan[0].at_s, 10.0);
  EXPECT_DOUBLE_EQ(plan[0].until_s, 25.0);
  EXPECT_EQ(plan[1].kind, PlannedFault::Kind::kSegment);
  EXPECT_EQ(plan[1].id, 2);
  EXPECT_DOUBLE_EQ(plan[1].at_s, 5.0);
  EXPECT_LT(plan[1].until_s, 0.0);  // never cleared
  EXPECT_EQ(plan[2].kind, PlannedFault::Kind::kNode);
  EXPECT_DOUBLE_EQ(plan[2].at_s, 1.5);
}

TEST(FaultPlanParse, EmptyPlanIsEmpty) {
  EXPECT_TRUE(parse_fault_plan("").empty());
  EXPECT_TRUE(parse_fault_plan(" ; ; ").empty());
}

void expect_rejected(const std::string& plan, const std::string& why) {
  try {
    parse_fault_plan(plan);
    FAIL() << "expected rejection of '" << plan << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << "plan '" << plan << "' raised: " << e.what();
  }
}

TEST(FaultPlanParse, RejectsBadEntriesNamingThem) {
  expect_rejected("gremlin:1:5", "gremlin");
  expect_rejected("node:1", "node:1");           // too few fields
  expect_rejected("node:1:2:3:4", "node:1:2:3:4");
  expect_rejected("node:x:5", "node:x:5");       // bad id
  expect_rejected("node:-1:5", "node:-1:5");
  expect_rejected("seg:0:abc", "seg:0:abc");     // bad time
  expect_rejected("node:0:-2", "node:0:-2");     // negative time
  expect_rejected("node:0:10:5", "node:0:10:5"); // until <= at
}

TEST(FaultPlanParse, RejectsNonFiniteAndOverflowingTimes) {
  // Each would otherwise reach SimTime::seconds, whose int64 cast is
  // undefined for them (an inf crash used to land at t=0).
  for (const std::string t : {"inf", "-inf", "nan", "1e300", "1e400"}) {
    expect_rejected("node:3:" + t, "bad time '" + t + "'");
    expect_rejected("node:3:1:" + t, "bad time '" + t + "'");
  }
  const auto plan = parse_fault_plan("node:3:9e12");  // just below 2^63 us
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_DOUBLE_EQ(plan[0].at_s, 9e12);
}

// ------------------------------------------------- scenario integration ---

ScenarioConfig faulted_highway() {
  ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.mobility = MobilityKind::kHighway;
  cfg.highway.length = 1500.0;
  cfg.vehicles_per_direction = 8;
  cfg.rsu_count = 1;
  cfg.duration_s = 12.0;
  cfg.traffic.flows = 4;
  cfg.traffic.start_s = 1.0;
  cfg.traffic.stop_s = 11.0;
  return cfg;
}

TEST(FaultPlan, PlannedNodeOutageIsAppliedAndCounted) {
  ScenarioConfig cfg = faulted_highway();
  cfg.fault.enabled = true;
  cfg.fault.plan = "node:0:2:8; node:1:3";
  Scenario s{cfg};
  s.run();
  const ScenarioReport r = s.report();
  ASSERT_TRUE(r.fault.has_value());
  EXPECT_EQ(r.fault->node_outages, 2u);
  EXPECT_EQ(r.fault->node_restarts, 1u);  // node 1 never comes back
  EXPECT_FALSE(s.network().node_up(1));
  EXPECT_TRUE(s.network().node_up(0));
}

TEST(FaultPlan, TimelineOracleTracksAppliedTransitions) {
  ScenarioConfig cfg = faulted_highway();
  cfg.fault.enabled = true;
  cfg.fault.plan = "node:2:4:9";
  Scenario s{cfg};
  s.run();
  ASSERT_NE(s.fault_plan(), nullptr);
  const FaultPlan& plan = *s.fault_plan();
  EXPECT_FALSE(plan.fault_active_at(core::SimTime::seconds(3.9)));
  EXPECT_TRUE(plan.fault_active_at(core::SimTime::seconds(4.0)));
  EXPECT_TRUE(plan.fault_active_at(core::SimTime::seconds(8.9)));
  EXPECT_FALSE(plan.fault_active_at(core::SimTime::seconds(9.1)));
}

TEST(FaultPlan, OverlappingFaultsLastWriterWins) {
  // Two outages of the same node overlap: the second crash is a no-op (the
  // node is already down) and the *first* restart wins — one outage window
  // from 2 s to 6 s, not two.
  ScenarioConfig cfg = faulted_highway();
  cfg.fault.enabled = true;
  cfg.fault.plan = "node:0:2:6; node:0:3:10";
  Scenario s{cfg};
  s.run();
  const ScenarioReport r = s.report();
  ASSERT_TRUE(r.fault.has_value());
  EXPECT_EQ(r.fault->node_outages, 1u);   // second crash found the node down
  EXPECT_EQ(r.fault->node_restarts, 1u);  // second restart found the node up
  const FaultPlan& plan = *s.fault_plan();
  EXPECT_TRUE(plan.fault_active_at(core::SimTime::seconds(4.0)));
  EXPECT_FALSE(plan.fault_active_at(core::SimTime::seconds(7.0)));
  EXPECT_TRUE(s.network().node_up(0));
}

TEST(FaultPlan, SeededChurnCrashesAndRestartsNodes) {
  ScenarioConfig cfg = faulted_highway();
  cfg.duration_s = 30.0;
  cfg.traffic.stop_s = 29.0;
  cfg.fault.enabled = true;
  cfg.fault.vehicle_mtbf_s = 10.0;  // aggressive: ~3 crashes per vehicle
  cfg.fault.vehicle_downtime_s = 2.0;
  Scenario s{cfg};
  s.run();
  const ScenarioReport r = s.report();
  ASSERT_TRUE(r.fault.has_value());
  const FaultReport& f = *r.fault;
  EXPECT_GT(f.node_outages, 0u);
  EXPECT_GT(f.node_restarts, 0u);
  EXPECT_GE(f.node_outages, f.node_restarts);
  // Classified traffic never exceeds the totals.
  EXPECT_LE(f.faulted_originated, r.originated);
  EXPECT_LE(f.faulted_delivered, r.delivered);
}

TEST(FaultPlan, RoadIncidentBlocksAndClearsSegments) {
  ScenarioConfig cfg = faulted_highway();
  cfg.mobility = MobilityKind::kGraph;
  cfg.vehicles = 20;
  cfg.fault.enabled = true;
  cfg.fault.plan = "seg:0:2:8; seg:3:4";
  Scenario s{cfg};
  s.run();
  const ScenarioReport r = s.report();
  ASSERT_TRUE(r.fault.has_value());
  EXPECT_EQ(r.fault->segment_blocks, 2u);
  ASSERT_NE(s.graph_model(), nullptr);
  EXPECT_FALSE(s.graph_model()->segment_blocked(0));  // cleared at 8 s
  EXPECT_TRUE(s.graph_model()->segment_blocked(3));   // never cleared
}

TEST(FaultPlan, BadPlansAreRejectedBeforeRunning) {
  {
    ScenarioConfig cfg = faulted_highway();
    cfg.fault.enabled = true;
    cfg.fault.plan = "node:9999:2";  // node id out of range
    Scenario s{cfg};
    EXPECT_THROW(s.run(), std::invalid_argument);
  }
  {
    ScenarioConfig cfg = faulted_highway();  // highway: no graph mobility
    cfg.fault.enabled = true;
    cfg.fault.plan = "seg:0:2";
    Scenario s{cfg};
    EXPECT_THROW(s.run(), std::invalid_argument);
  }
  {
    ScenarioConfig cfg = faulted_highway();
    cfg.fault.enabled = true;
    cfg.fault.vehicle_mtbf_s = -1.0;
    Scenario s{cfg};
    EXPECT_THROW(s.run(), std::invalid_argument);
  }
}

// ----------------------------------------------------------- determinism ---

TEST(FaultPlan, DisabledFaultLayerPerturbsNoOtherStream) {
  // Enabling the subsystem with *zero* configured faults must leave every
  // non-fault line of the canonical report byte-identical to a run without
  // it: the "fault" RNG stream is derived (or not) without perturbing the
  // draws of any other stream.
  ScenarioConfig cfg = faulted_highway();
  Scenario off{cfg};
  off.run();
  cfg.fault.enabled = true;  // no plan, no churn
  Scenario on{cfg};
  on.run();

  const std::string off_str = canonical_report_string(off.report());
  const std::string on_str = canonical_report_string(on.report());
  // The enabled run appends fault_* lines; everything before them must match
  // the disabled run exactly.
  ASSERT_NE(off_str, on_str);
  EXPECT_EQ(on_str.compare(0, off_str.size() - 0, off_str), 0)
      << "fault layer perturbed a non-fault stream";
}

TEST(FaultPlan, FaultedRunsAreSeedDeterministic) {
  ScenarioConfig cfg = faulted_highway();
  cfg.fault.enabled = true;
  cfg.fault.plan = "node:0:2:8";
  cfg.fault.vehicle_mtbf_s = 15.0;
  Scenario a{cfg};
  a.run();
  Scenario b{cfg};
  b.run();
  EXPECT_EQ(report_digest(a.report()), report_digest(b.report()));
}

TEST(FaultPlan, FaultedSweepIsIdenticalAcrossWorkerCounts) {
  // S3: same seeds + same plan => byte-identical sink output for jobs=1 and
  // jobs=4, faults and all.
  ExperimentSpec spec;
  spec.base = faulted_highway();
  spec.base.fault.enabled = true;
  spec.base.fault.plan = "node:0:2:8";
  spec.base.fault.vehicle_mtbf_s = 20.0;
  spec.base.fault.vehicle_downtime_s = 3.0;
  spec.protocols = {"aodv", "flooding"};
  spec.seeds = {1, 2};

  std::ostringstream serial, parallel;
  JsonlSink serial_sink{serial, /*include_runs=*/true};
  JsonlSink parallel_sink{parallel, /*include_runs=*/true};
  ExperimentEngine{1}.run(spec, serial_sink);
  ExperimentEngine{4}.run(spec, parallel_sink);
  EXPECT_EQ(serial.str(), parallel.str());
  EXPECT_NE(serial.str().find("\"type\":\"aggregate\""), std::string::npos);
}

}  // namespace
}  // namespace vanet::sim

// Crash-proof experiment engine (RunGuards): failure capture into structured
// records, the event-budget watchdog, and
// byte-identical sink output across worker counts even when runs fail.
#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/config_kv.h"

namespace vanet::sim {
namespace {

ScenarioConfig micro_highway() {
  ScenarioConfig cfg;
  cfg.mobility = MobilityKind::kHighway;
  cfg.highway.length = 1000.0;
  cfg.vehicles_per_direction = 6;
  cfg.duration_s = 2.0;
  cfg.traffic.flows = 2;
  cfg.traffic.start_s = 0.2;
  cfg.traffic.stop_s = 1.8;
  return cfg;
}

ExperimentSpec broken_spec() {
  // Scenario construction throws inside the worker (not in expand): graph
  // mobility over a nonexistent map file.
  ExperimentSpec spec;
  spec.base = micro_highway();
  spec.base.mobility = MobilityKind::kGraph;
  spec.base.map.source = MapSource::kFile;
  spec.base.map.file = "/nonexistent/engine_guards_map.csv";
  spec.protocols = {"aodv"};
  spec.seeds = {1, 2};
  return spec;
}

TEST(EngineGuards, CaptureTurnsExceptionsIntoFailureRecords) {
  const ExperimentSpec spec = broken_spec();  // guards.capture defaults true
  const ExperimentResult result = ExperimentEngine{1}.run(spec);
  ASSERT_EQ(result.failures.size(), 2u);
  EXPECT_EQ(result.failures[0].protocol, "aodv");
  EXPECT_EQ(result.failures[0].seed, 1u);
  EXPECT_EQ(result.failures[0].kind, "exception");
  EXPECT_NE(result.failures[0].error.find("cannot open"), std::string::npos);
  EXPECT_EQ(result.failures[1].seed, 2u);
  // The cell row survives with zero healthy runs.
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].failed_runs, 2u);
  EXPECT_TRUE(result.cells[0].agg.runs.empty());
}

TEST(EngineGuards, HostileConfigValuesBecomeFailureRowsNotAborts) {
  // A value outside its key's bound is a spec error before any run: the
  // sweep expansion throws naming the key.
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"mobility_tick_s", "0"},
           {"traffic.rate_pps", "0"},
           {"traffic.flows", "0"},
           {"hello.interval_s", "0"}}) {
    ExperimentSpec spec;
    spec.base = micro_highway();
    spec.protocols = {"greedy"};
    spec.axes = {{key, {value}}};
    spec.seeds = {1};
    try {
      expand(spec);
      ADD_FAILURE() << key << "=" << value << ": expansion accepted it";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(key), std::string::npos)
          << e.what();
    }
  }

  // A combination no single key can reject runs into validate_config in the
  // Scenario constructor: one captured failure naming its keys, never a
  // process abort.
  struct Hostile {
    std::string key, value, protocol;
    /// Settings applied to the base config first.
    std::vector<std::pair<std::string, std::string>> base = {};
  };
  const std::vector<Hostile> hostile{
      {"traffic.stop_s", "0.1", "aodv"},
      {"hello.expiry_s", "0.1", "greedy"},
      // How many streets a lattice needs depends on the mobility model.
      {"manhattan.streets_x", "1", "aodv",
       {{"mobility", "manhattan"}, {"vehicles", "10"}}},
      {"manhattan.streets_y", "1", "aodv",
       {{"mobility", "graph"}, {"vehicles", "10"},
        {"manhattan.streets_x", "1"}}},
  };
  for (const Hostile& h : hostile) {
    ExperimentSpec spec;
    spec.base = micro_highway();
    for (const auto& [key, value] : h.base) config_set(spec.base, key, value);
    spec.protocols = {h.protocol};
    spec.axes = {{h.key, {h.value}}};
    spec.seeds = {1};
    const ExperimentResult result = ExperimentEngine{1}.run(spec);
    ASSERT_EQ(result.failures.size(), 1u) << h.key << "=" << h.value;
    EXPECT_EQ(result.failures[0].kind, "exception") << h.key;
    EXPECT_NE(result.failures[0].error.find(h.key), std::string::npos)
        << result.failures[0].error;
  }
}

TEST(EngineGuards, MixedCellAggregatesOnlyHealthySeeds) {
  // Seed 1 of this cell dispatches 153 events and seed 2 dispatches 104, so
  // a 130-event budget trips the first and lets the second finish.
  ExperimentSpec spec;
  spec.base = micro_highway();
  spec.protocols = {"aodv"};
  spec.seeds = {1, 2};
  spec.guards.max_events = 130;
  const ExperimentResult result = ExperimentEngine{2}.run(spec);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].seed, 1u);
  EXPECT_EQ(result.failures[0].kind, "event-budget");
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].failed_runs, 1u);
  const AggregateReport& agg = result.cells[0].agg;
  ASSERT_EQ(agg.runs.size(), 1u);

  // The aggregate is seed 2's direct run and nothing else.
  ScenarioConfig cfg = micro_highway();
  cfg.protocol = "aodv";
  cfg.seed = 2;
  Scenario scenario{cfg};
  scenario.run();
  const ScenarioReport direct = scenario.report();
  EXPECT_EQ(report_digest(agg.runs[0]), report_digest(direct));
  EXPECT_EQ(agg.pdr.count(), 1u);
  EXPECT_EQ(agg.pdr.mean(), direct.pdr);
  EXPECT_EQ(agg.total_originated, direct.originated);
  EXPECT_EQ(agg.total_delivered, direct.delivered);
}

TEST(EngineGuards, EventBudgetAbortsDeterministically) {
  ExperimentSpec spec;
  spec.base = micro_highway();
  spec.protocols = {"aodv"};
  spec.seeds = {1};
  spec.guards.max_events = 50;
  const ExperimentResult a = ExperimentEngine{1}.run(spec);
  const ExperimentResult b = ExperimentEngine{1}.run(spec);
  ASSERT_EQ(a.failures.size(), 1u);
  EXPECT_EQ(a.failures[0].kind, "event-budget");
  // Parameter-only message: identical bytes run to run.
  EXPECT_EQ(a.failures[0].error, "event budget exceeded: max_events=50");
  ASSERT_EQ(b.failures.size(), 1u);
  EXPECT_EQ(a.failures[0].error, b.failures[0].error);
}

TEST(EngineGuards, FailFastKeepsTheLegacyThrowingContract) {
  ExperimentSpec spec = broken_spec();
  spec.guards.capture = false;
  EXPECT_THROW(ExperimentEngine{1}.run(spec), std::runtime_error);
  EXPECT_THROW(ExperimentEngine{4}.run(spec), std::runtime_error);
}

TEST(EngineGuards, GuardValidationHappensInExpand) {
  ExperimentSpec spec;
  spec.base = micro_highway();
  spec.guards.timeout_s = -1.0;
  EXPECT_THROW(expand(spec), std::invalid_argument);
}

TEST(EngineGuards, TimeoutBeyondTheClockRangeMeansNoDeadline) {
  // 1e10 s is past steady_clock's ~9.2e9 s of nanoseconds; the deadline
  // used to overflow into the past and fail every run at its first poll.
  ExperimentSpec spec;
  spec.base = micro_highway();
  spec.base.duration_s = 10.0;
  spec.base.traffic.stop_s = 9.0;
  spec.base.vehicles_per_direction = 20;
  spec.protocols = {"aodv"};
  spec.seeds = {1};
  {
    ScenarioConfig cfg = spec.base;
    cfg.protocol = "aodv";
    Scenario probe{cfg};
    probe.run();
    ASSERT_GT(probe.events_dispatched(), 1024u);  // the watchdog polls
  }
  for (const double timeout_s :
       {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
    spec.guards.timeout_s = timeout_s;
    const ExperimentResult result = ExperimentEngine{1}.run(spec);
    EXPECT_TRUE(result.failures.empty())
        << timeout_s << ": " << result.failures.front().kind;
    ASSERT_EQ(result.cells.size(), 1u);
  }
}

TEST(EngineGuards, FailureBytesIdenticalAcrossWorkerCounts) {
  // Two protocols x two seeds, all four runs killed by the event budget:
  // every sink byte — failure records included — must match jobs=1.
  ExperimentSpec spec;
  spec.base = micro_highway();
  spec.protocols = {"aodv", "flooding"};
  spec.seeds = {1, 2};
  spec.guards.max_events = 50;

  std::ostringstream serial, parallel;
  JsonlSink serial_sink{serial, /*include_runs=*/true};
  JsonlSink parallel_sink{parallel, /*include_runs=*/true};
  ExperimentEngine{1}.run(spec, serial_sink);
  ExperimentEngine{4}.run(spec, parallel_sink);
  EXPECT_EQ(serial.str(), parallel.str());
  EXPECT_NE(serial.str().find("\"type\":\"failure\""), std::string::npos);
  EXPECT_NE(serial.str().find("\"failed_runs\":2"), std::string::npos);
}

TEST(EngineGuards, SinksRenderFailures) {
  ExperimentSpec spec = broken_spec();
  spec.seeds = {1};

  std::ostringstream md_out, csv_out, jsonl_out;
  MarkdownSink md{md_out};
  CsvSink csv{csv_out};
  JsonlSink jsonl{jsonl_out};
  std::vector<ReportSink*> sinks{&md, &csv, &jsonl};
  const ExperimentResult result = ExperimentEngine{1}.run(spec, sinks);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_NE(md_out.str().find("FAILED aodv"), std::string::npos);
  EXPECT_NE(csv_out.str().find("# failed,aodv"), std::string::npos);
  EXPECT_NE(jsonl_out.str().find("\"kind\":\"exception\""), std::string::npos);
}

TEST(EngineGuards, WatchdogDoesNotDisturbHealthyRuns) {
  // Generous guards on a healthy spec: same digests as no guards at all
  // (the wall-clock watchdog must never feed sim state).
  ExperimentSpec plain;
  plain.base = micro_highway();
  plain.protocols = {"aodv"};
  plain.seeds = {1};
  ExperimentSpec guarded = plain;
  guarded.guards.timeout_s = 3600.0;
  guarded.guards.max_events = 50'000'000;

  std::ostringstream plain_out, guarded_out;
  JsonlSink plain_sink{plain_out, true};
  JsonlSink guarded_sink{guarded_out, true};
  ExperimentEngine{1}.run(plain, plain_sink);
  ExperimentEngine{1}.run(guarded, guarded_sink);
  EXPECT_EQ(plain_out.str(), guarded_out.str());
}

}  // namespace
}  // namespace vanet::sim

#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <sstream>

namespace vanet::sim {
namespace {

ScenarioConfig tiny_highway() {
  ScenarioConfig cfg;
  cfg.mobility = MobilityKind::kHighway;
  cfg.highway.length = 1500.0;
  cfg.vehicles_per_direction = 12;
  cfg.duration_s = 10.0;
  cfg.traffic.flows = 3;
  cfg.traffic.start_s = 1.0;
  cfg.traffic.stop_s = 8.0;
  cfg.traffic.min_pair_distance_m = 200.0;
  return cfg;
}

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.base = tiny_highway();
  spec.protocols = {"aodv", "greedy"};
  spec.axes = {{"vehicles_per_direction", {"8", "16"}}};
  spec.seeds = {1, 2};
  return spec;
}

TEST(Experiment, ExpandProducesMatrixInOrder) {
  ExperimentSpec spec = small_spec();
  spec.axes.push_back({"traffic.rate_pps", {"1", "2", "4"}});
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), 2u * 2u * 3u);
  // Protocols outermost, first axis next, last axis fastest.
  EXPECT_EQ(cells[0].protocol, "aodv");
  EXPECT_EQ(cells[0].axes[0].second, "8");
  EXPECT_EQ(cells[0].axes[1].second, "1");
  EXPECT_EQ(cells[1].axes[1].second, "2");
  EXPECT_EQ(cells[3].axes[0].second, "16");
  EXPECT_EQ(cells[6].protocol, "greedy");
  // The axis value is applied to the cell config.
  EXPECT_EQ(cells[3].config.vehicles_per_direction, 16);
  EXPECT_DOUBLE_EQ(cells[4].config.traffic.rate_pps, 2.0);
  // Digests identify distinct cells.
  EXPECT_NE(cells[0].digest, cells[1].digest);
}

TEST(Experiment, ExpandValidatesInputs) {
  ExperimentSpec spec = small_spec();
  spec.protocols = {"aodv", "not-a-protocol"};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  spec = small_spec();
  spec.axes = {{"no.such.key", {"1"}}};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  spec = small_spec();
  spec.axes = {{"vehicles", {}}};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  // A protocol axis is validated up front, not mid-matrix in a worker.
  spec = small_spec();
  spec.axes = {{"protocol", {"aodv", "aovd"}}};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  // Duplicate axis keys would mislabel rows (later axis overwrites earlier).
  spec = small_spec();
  spec.axes = {{"traffic.flows", {"1", "2"}}, {"traffic.flows", {"3"}}};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  // A protocols list and a protocol axis are mutually exclusive.
  spec = small_spec();
  spec.axes.push_back({"protocol", {"flooding"}});
  EXPECT_THROW(expand(spec), std::invalid_argument);

  // Protocol overrides must not clobber swept keys (row labels would lie).
  spec = small_spec();
  spec.protocol_overrides["aodv"] = {{"vehicles_per_direction", "9"}};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  // Seed is controlled by the seeds list, never an axis or override.
  spec = small_spec();
  spec.axes.push_back({"seed", {"10", "20"}});
  EXPECT_THROW(expand(spec), std::invalid_argument);
  spec = small_spec();
  spec.protocol_overrides["aodv"] = {{"seed", "10"}};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  // Overrides for protocols outside the matrix are typos, not no-ops.
  spec = small_spec();
  spec.protocol_overrides["ddr"] = {{"rsu_count", "6"}};
  EXPECT_THROW(expand(spec), std::invalid_argument);
  spec = small_spec();
  spec.protocol_overrides["aodv"] = {{"rsu.count", "6"}};
  EXPECT_THROW(expand(spec), std::invalid_argument);

  spec = small_spec();
  spec.seeds.clear();
  EXPECT_THROW(expand(spec), std::invalid_argument);
}

TEST(Experiment, ProtocolOverridesApplyOnlyToMatchingCells) {
  ExperimentSpec spec = small_spec();
  spec.protocols = {"aodv", "drr"};
  spec.protocol_overrides["drr"] = {{"rsu_count", "5"}};
  const auto cells = expand(spec);
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.config.rsu_count, cell.protocol == "drr" ? 5 : 0)
        << cell.protocol;
  }
}

TEST(Experiment, ProtocolAxisSweepsTheProtocolItself) {
  ExperimentSpec spec;
  spec.base = tiny_highway();
  spec.axes = {{"protocol", {"flooding", "aodv"}}};
  spec.seeds = {1};
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].protocol, "flooding");
  EXPECT_EQ(cells[1].protocol, "aodv");
  EXPECT_EQ(cells[1].config.protocol, "aodv");
}

// The acceptance-criterion determinism test: a parallel engine run must be
// bit-identical to the serial one — same AggregateReport numbers, same sink
// bytes.
TEST(Experiment, ParallelMatchesSerialBitForBit) {
  const ExperimentSpec spec = small_spec();

  std::ostringstream serial_csv, parallel_csv;
  CsvSink serial_sink{serial_csv}, parallel_sink{parallel_csv};
  ExperimentResult serial = ExperimentEngine{1}.run(spec, serial_sink);
  ExperimentResult parallel = ExperimentEngine{4}.run(spec, parallel_sink);

  EXPECT_EQ(serial_csv.str(), parallel_csv.str());

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const AggregateReport& a = serial.cells[i].agg;
    const AggregateReport& b = parallel.cells[i].agg;
    EXPECT_EQ(serial.cells[i].config_digest, parallel.cells[i].config_digest);
    EXPECT_EQ(a.pdr.count(), b.pdr.count());
    EXPECT_EQ(a.pdr.mean(), b.pdr.mean());
    EXPECT_EQ(a.pdr.variance(), b.pdr.variance());
    EXPECT_EQ(a.delay_ms.mean(), b.delay_ms.mean());
    EXPECT_EQ(a.hops.mean(), b.hops.mean());
    EXPECT_EQ(a.control_per_delivered.mean(), b.control_per_delivered.mean());
    EXPECT_EQ(a.collision_fraction.mean(), b.collision_fraction.mean());
    EXPECT_EQ(a.route_breaks.mean(), b.route_breaks.mean());
    EXPECT_EQ(a.total_originated, b.total_originated);
    EXPECT_EQ(a.total_delivered, b.total_delivered);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t r = 0; r < a.runs.size(); ++r) {
      EXPECT_EQ(a.runs[r].delivered, b.runs[r].delivered);
      EXPECT_EQ(a.runs[r].control_frames, b.runs[r].control_frames);
      EXPECT_EQ(a.runs[r].delay_ms_mean, b.runs[r].delay_ms_mean);
    }
  }
}

// A one-cell spec on the engine (the way benches and examples run seeds)
// reproduces the hand-rolled serial loop over Scenario exactly: the same
// reports in seed order, aggregated the same way.
TEST(Experiment, RunSeedsMatchesHandRolledLoop) {
  ExperimentSpec spec;
  spec.base = tiny_highway();
  spec.base.protocol = "aodv";
  spec.seeds = {3, 7};
  spec.guards.capture = false;

  std::vector<ScenarioReport> reports;
  analysis::RunningStats pdr;
  analysis::RunningStats delay_ms;
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  for (std::uint64_t seed : spec.seeds) {
    ScenarioConfig c = spec.base;
    c.seed = seed;
    Scenario scenario{c};
    scenario.run();
    const ScenarioReport r = scenario.report();
    pdr.add(r.pdr);
    if (r.delivered > 0) delay_ms.add(r.delay_ms_mean);
    originated += r.originated;
    delivered += r.delivered;
    reports.push_back(r);
  }
  const ExperimentResult result = ExperimentEngine{2}.run(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  const AggregateReport& actual = result.cells[0].agg;

  EXPECT_EQ(actual.protocol, "aodv");
  EXPECT_EQ(actual.pdr.mean(), pdr.mean());
  EXPECT_EQ(actual.pdr.variance(), pdr.variance());
  EXPECT_EQ(actual.delay_ms.mean(), delay_ms.mean());
  EXPECT_EQ(actual.total_originated, originated);
  EXPECT_EQ(actual.total_delivered, delivered);
  ASSERT_EQ(actual.runs.size(), reports.size());
  for (std::size_t i = 0; i < actual.runs.size(); ++i) {
    EXPECT_EQ(report_digest(actual.runs[i]), report_digest(reports[i])) << i;
  }
}

class CountingSink final : public ReportSink {
 public:
  int begins = 0, runs = 0, aggregates = 0, ends = 0;
  std::vector<std::string> axis_keys;
  std::vector<std::uint64_t> seeds_seen;

  void begin(const std::vector<std::string>& keys) override {
    ++begins;
    axis_keys = keys;
  }
  void on_run(const RunRecord& rec) override {
    ++runs;
    seeds_seen.push_back(rec.seed);
  }
  void on_aggregate(const AggregateRecord&) override { ++aggregates; }
  void end() override { ++ends; }
};

TEST(Experiment, SinksSeeEveryRecordInDeterministicOrder) {
  const ExperimentSpec spec = small_spec();  // 4 cells x 2 seeds
  CountingSink sink;
  ExperimentEngine engine{3};
  const ExperimentResult result = engine.run(spec, sink);

  EXPECT_EQ(sink.begins, 1);
  EXPECT_EQ(sink.ends, 1);
  EXPECT_EQ(sink.aggregates, 4);
  EXPECT_EQ(sink.runs, 8);
  EXPECT_EQ(sink.axis_keys,
            std::vector<std::string>{"vehicles_per_direction"});
  // Per-cell run records arrive in seed order.
  EXPECT_EQ(sink.seeds_seen,
            (std::vector<std::uint64_t>{1, 2, 1, 2, 1, 2, 1, 2}));
  EXPECT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.cells[0].agg.runs.size(), 2u);
}

TEST(Experiment, MarkdownAndJsonlSinksEmitOneRecordPerCell) {
  const ExperimentSpec spec = small_spec();
  std::ostringstream md, jsonl;
  MarkdownSink md_sink{md};
  JsonlSink jsonl_sink{jsonl, /*include_runs=*/true};
  ExperimentEngine engine{2};
  engine.run(spec, std::vector<ReportSink*>{&md_sink, &jsonl_sink});

  // Markdown: header + separator + one row per cell.
  std::istringstream md_lines(md.str());
  std::string line;
  int md_rows = 0;
  while (std::getline(md_lines, line)) ++md_rows;
  EXPECT_EQ(md_rows, 2 + 4);

  std::istringstream jsonl_lines(jsonl.str());
  int run_lines = 0, agg_lines = 0;
  while (std::getline(jsonl_lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"type\":\"run\"") != std::string::npos) ++run_lines;
    if (line.find("\"type\":\"aggregate\"") != std::string::npos) ++agg_lines;
  }
  EXPECT_EQ(run_lines, 8);
  EXPECT_EQ(agg_lines, 4);
}

// ExperimentSpec::profile gates the throughput fields: off (the default)
// emits not a byte of them — historical JSONL stays byte-identical — and on
// adds wall time, events and events/sec to run records and the means to
// aggregates. Wall-clock values are nondeterministic, so the test checks
// presence and the deterministic fields only.
TEST(Experiment, ProfileCaptureGatesSinkFields) {
  ExperimentSpec spec = small_spec();
  spec.protocols = {"aodv"};
  spec.axes.clear();
  spec.seeds = {1};

  std::ostringstream plain, profiled;
  JsonlSink plain_sink{plain, /*include_runs=*/true};
  JsonlSink profiled_sink{profiled, /*include_runs=*/true};
  ExperimentEngine engine{1};
  engine.run(spec, plain_sink);
  spec.profile = true;
  engine.run(spec, profiled_sink);

  EXPECT_EQ(plain.str().find("wall_s"), std::string::npos);
  EXPECT_EQ(plain.str().find("events_dispatched"), std::string::npos);

  std::istringstream lines(profiled.str());
  std::string line;
  int runs = 0, aggs = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"type\":\"run\"") != std::string::npos) {
      ++runs;
      EXPECT_NE(line.find("\"wall_s\":"), std::string::npos);
      EXPECT_NE(line.find("\"events_dispatched\":"), std::string::npos);
      EXPECT_NE(line.find("\"events_per_sec\":"), std::string::npos);
    }
    if (line.find("\"type\":\"aggregate\"") != std::string::npos) {
      ++aggs;
      EXPECT_NE(line.find("\"wall_s_mean\":"), std::string::npos);
      EXPECT_NE(line.find("\"events_per_sec_mean\":"), std::string::npos);
    }
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(aggs, 1);
}

}  // namespace
}  // namespace vanet::sim

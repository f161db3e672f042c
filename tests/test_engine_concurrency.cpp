// TSan-targeted stress for the ExperimentEngine worker pool.
//
// test_experiment.cpp proves jobs=4 == jobs=1 on a small matrix; these tests
// exist to give the ThreadSanitizer CI leg a concurrency surface worth
// instrumenting: many workers racing a thin job list (maximum contention on
// the job counter and maximum scenario construction/teardown churn), the
// hardware-concurrency path, and exception propagation out of worker
// threads. They run in every leg, but their value is highest under
// -DVANET_TSAN=ON, where any data race in the engine/report-aggregation
// path is a hard failure.
#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace vanet::sim {
namespace {

// Deliberately tiny: the point is worker churn, not simulated physics. With
// 24 runs of ~1 simulated second each, 8 workers constantly hit the atomic
// job counter and recycle Scenario stacks.
ScenarioConfig micro_highway() {
  ScenarioConfig cfg;
  cfg.mobility = MobilityKind::kHighway;
  cfg.highway.length = 1000.0;
  cfg.vehicles_per_direction = 6;
  cfg.duration_s = 1.0;
  cfg.traffic.flows = 2;
  cfg.traffic.start_s = 0.2;
  cfg.traffic.stop_s = 0.8;
  return cfg;
}

ExperimentSpec thin_job_spec() {
  ExperimentSpec spec;
  spec.base = micro_highway();
  spec.protocols = {"aodv", "flooding", "greedy"};
  spec.axes = {{"vehicles_per_direction", {"4", "8"}}};
  spec.seeds = {1, 2, 3, 4};  // 3 protocols x 2 axis values x 4 seeds = 24
  return spec;
}

TEST(EngineConcurrency, EightWorkersMatchSerialByteForByte) {
  const ExperimentSpec spec = thin_job_spec();

  std::ostringstream serial_out, parallel_out;
  JsonlSink serial_sink{serial_out}, parallel_sink{parallel_out};
  ExperimentEngine{1}.run(spec, serial_sink);
  ExperimentEngine{8}.run(spec, parallel_sink);

  // The JSONL stream embeds every per-run report and config digest, so byte
  // equality here is per-run bit-identity, not just aggregate equality.
  EXPECT_EQ(serial_out.str(), parallel_out.str());
  EXPECT_GT(serial_out.str().size(), 0u);
}

TEST(EngineConcurrency, MoreWorkersThanJobsIsExact) {
  ExperimentSpec spec = thin_job_spec();
  spec.protocols = {"aodv"};
  spec.axes.clear();
  spec.seeds = {5, 6};  // 2 runs, 8 requested workers

  std::ostringstream a, b;
  JsonlSink sink_a{a}, sink_b{b};
  ExperimentEngine{8}.run(spec, sink_a);
  ExperimentEngine{1}.run(spec, sink_b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(EngineConcurrency, HardwareConcurrencyPathMatchesSerial) {
  const ExperimentSpec spec = thin_job_spec();

  ExperimentEngine hw{0};  // <= 0 resolves to hardware concurrency

  std::ostringstream hw_out, serial_out;
  JsonlSink hw_sink{hw_out}, serial_sink{serial_out};
  hw.run(spec, hw_sink);
  ExperimentEngine{1}.run(spec, serial_sink);
  EXPECT_EQ(hw_out.str(), serial_out.str());
}

TEST(EngineConcurrency, WorkerExceptionPropagatesToCaller) {
  ExperimentSpec spec = thin_job_spec();
  // Scenario construction throws inside the worker thread (not in expand):
  // graph mobility over a map file that does not exist.
  spec.base.mobility = MobilityKind::kGraph;
  spec.base.map.source = MapSource::kFile;
  spec.base.map.file = "/nonexistent/engine_concurrency_map.csv";
  spec.protocols = {"aodv"};
  spec.axes.clear();
  // Fail-fast mode: with capture on (the default) the engine would turn this
  // into a FailureRecord instead of throwing.
  spec.guards.capture = false;

  EXPECT_THROW(ExperimentEngine{4}.run(spec), std::runtime_error);
  EXPECT_THROW(ExperimentEngine{1}.run(spec), std::runtime_error);
}

}  // namespace
}  // namespace vanet::sim

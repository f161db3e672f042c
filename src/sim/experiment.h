// Declarative experiment API: a spec describes a whole run matrix —
// base config x protocols x named sweep axes x seeds — and the engine
// executes it, optionally across a worker thread pool.
//
// Each Scenario is self-contained and seed-deterministic, so runs are
// embarrassingly parallel. The engine exploits that: workers race through a
// flattened job list, but results are stored by matrix index and aggregated
// afterwards in fixed (cell, seed) order, so every aggregate — and every
// byte a ReportSink emits — is identical for jobs=1 and jobs=N.
//
// Axes address ScenarioConfig fields through the config_kv string layer, so
// any knob is sweepable (`vehicles`, `traffic.rate_pps`, `hello.interval_s`,
// even `protocol` itself when row ordering should interleave protocols).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/config_kv.h"
#include "sim/report_sink.h"

namespace vanet::sim {

/// One sweep dimension: a config_kv key and the values it takes.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// Crash-proofing knobs for each (cell, seed) run of a sweep.
///
/// With `capture` on (the default), a run that throws — bad config, protocol
/// bug, watchdog abort — becomes a structured FailureRecord fed to every
/// ReportSink instead of killing the whole sweep; the remaining runs still
/// execute and aggregate. With `capture` off the engine fails fast: the
/// first exception is rethrown on the calling thread after all workers join.
/// Bench mains and examples run that way, so a failed run can never drop
/// silently out of a printed mean.
///
/// `timeout_s` arms a wall-clock watchdog per run and `max_events` a
/// simulator event budget; either tripping aborts the run with kind
/// "timeout" / "event-budget". Both are polled every ~1024 dispatched
/// events. The event budget trips deterministically (same event stream, same
/// trip point) and its failure message mentions only the configured budget,
/// so captured output is byte-identical across jobs=1 and jobs=N. The
/// wall-clock watchdog never feeds sim state, so runs that survive it are
/// unaffected. Zero disables each.
struct RunGuards {
  bool capture = true;
  double timeout_s = 0.0;
  std::uint64_t max_events = 0;
};

struct ExperimentSpec {
  ScenarioConfig base;
  /// Protocols to compare (outermost dimension). Empty: just base.protocol.
  std::vector<std::string> protocols;
  /// Cartesian product of axes; the first axis varies slowest.
  std::vector<SweepAxis> axes;
  /// Seeds aggregated per cell. Empty specs are invalid.
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  /// Extra key=value overrides applied only when the cell's protocol matches
  /// — e.g. grant an infrastructure protocol its RSUs without sweeping every
  /// protocol through rsu_count.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      protocol_overrides;
  /// Failure capture / watchdog policy (see RunGuards).
  RunGuards guards;
  /// Per-run throughput capture: time each run's Scenario::run() and record
  /// it with the events dispatched into the run and aggregate records
  /// (RunRecord::profiled gates the extra sink fields, so an unprofiled
  /// sweep's output stays byte-identical to historical output).
  /// Wall-clock readings are inherently nondeterministic, so a profiled
  /// sweep's JSONL is NOT byte-comparable across jobs=1 / jobs=N — use it
  /// for perf harnesses (perfbench's paper-sweep), never for digest
  /// comparisons. It is the library's one per-run timing path.
  bool profile = false;
};

/// One cell of the expanded matrix (a fully resolved config minus the seed).
struct ExperimentCell {
  std::string protocol;
  std::vector<std::pair<std::string, std::string>> axes;  ///< {key, value}
  ScenarioConfig config;  ///< seed forced to 0; set per run
  std::string digest;     ///< config_digest of `config`
};

/// Deterministic matrix expansion. Throws std::invalid_argument for unknown
/// protocols, unknown axis keys, bad axis values, or an empty seed list.
std::vector<ExperimentCell> expand(const ExperimentSpec& spec);

struct ExperimentResult {
  std::vector<AggregateRecord> cells;  ///< matrix order
  /// Runs that failed, matrix order. Empty unless the spec's guards
  /// captured failures (guards.capture and something actually broke).
  std::vector<FailureRecord> failures;
};

/// Threading contract (ThreadSanitizer-enforced — the CI tsan job runs the
/// suite, a --jobs 4 sweep and the bench smoke row under -DVANET_TSAN=ON):
/// workers claim jobs from one atomic counter and write results into
/// disjoint per-job slots; no Scenario state is shared across threads; a
/// worker's exception is captured and rethrown on the calling thread after
/// all workers join; sinks are only ever written by the calling thread,
/// after the join, in matrix order. Keep any new shared state inside this
/// design (or extend the tsan job's workloads to cover it).
class ExperimentEngine {
 public:
  /// `jobs` worker threads; <= 0 means hardware concurrency.
  explicit ExperimentEngine(int jobs = 1);

  ExperimentResult run(const ExperimentSpec& spec);
  ExperimentResult run(const ExperimentSpec& spec, ReportSink& sink);
  /// All sinks observe the same deterministic record stream.
  ExperimentResult run(const ExperimentSpec& spec,
                       const std::vector<ReportSink*>& sinks);

 private:
  int jobs_;
};

}  // namespace vanet::sim

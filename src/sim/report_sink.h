// Pluggable output for experiment results.
//
// The ExperimentEngine feeds every sink a unified record stream: one
// RunRecord per (cell, seed) and one AggregateRecord per cell, always in
// deterministic matrix order regardless of how many worker threads executed
// the runs. Sinks therefore produce byte-identical output for `jobs=1` and
// `jobs=N`.
//
// Ship three implementations (markdown table, CSV, JSON lines); benches are
// free to subclass ReportSink to preserve their bespoke layouts while still
// running on the engine (see bench/bench_table1_summary.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner.h"

namespace vanet::sim {

/// One (protocol, axis assignment, seed) simulation run.
struct RunRecord {
  std::string protocol;
  /// Sweep-axis assignment for this cell, in axis order: {key, value}.
  std::vector<std::pair<std::string, std::string>> axes;
  std::uint64_t seed = 0;
  std::string config_digest;  ///< digest of the exact run config (with seed)
  ScenarioReport report;
  /// Throughput capture (ExperimentSpec::profile). `profiled` gates the
  /// extra sink fields so unprofiled sweeps emit byte-identical output.
  bool profiled = false;
  double wall_s = 0.0;                  ///< wall-clock inside Scenario::run()
  std::uint64_t events_dispatched = 0;
  double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(events_dispatched) / wall_s : 0.0;
  }
};

/// One cell of the run matrix, aggregated over all seeds.
struct AggregateRecord {
  std::string protocol;
  std::vector<std::pair<std::string, std::string>> axes;
  std::string config_digest;  ///< digest of the cell config with seed=0
  AggregateReport agg;
  /// Seeds of this cell that failed every attempt (RunGuards capture mode).
  /// Zero on the classic all-healthy path, so sinks that only mention
  /// failures when failed_runs > 0 stay byte-identical to older output.
  std::uint64_t failed_runs = 0;
  /// Per-cell throughput aggregation over the successful seeds
  /// (ExperimentSpec::profile); `profiled` gates the extra sink fields.
  bool profiled = false;
  analysis::RunningStats wall_s;
  analysis::RunningStats events_per_sec;
};

/// One (cell, seed) run that failed every attempt. `seed` is the requested
/// matrix seed; `last_seed` is the derived seed of the final retry (equal to
/// `seed` when no retries were configured). `kind` is one of "exception",
/// "timeout" or "event-budget"; `error` is the human-readable detail.
struct FailureRecord {
  std::string protocol;
  std::vector<std::pair<std::string, std::string>> axes;
  std::uint64_t seed = 0;
  std::uint64_t last_seed = 0;
  int attempts = 1;
  std::string kind;
  std::string error;
};

class ReportSink {
 public:
  virtual ~ReportSink();

  /// Called once before any records, with the sweep-axis keys in order.
  virtual void begin(const std::vector<std::string>& axis_keys);
  virtual void on_run(const RunRecord& rec);
  /// Called for each failed (cell, seed) run, in matrix order, interleaved
  /// with the cell's on_run calls (successes and failures keep seed order).
  /// Default: no-op, so sinks that predate fault capture are unaffected.
  virtual void on_failure(const FailureRecord& rec);
  virtual void on_aggregate(const AggregateRecord& rec);
  /// Called once after all records.
  virtual void end();
};

/// Human-readable aligned markdown table, one row per aggregate.
class MarkdownSink final : public ReportSink {
 public:
  explicit MarkdownSink(std::ostream& out) : out_(out) {}
  void begin(const std::vector<std::string>& axis_keys) override;
  void on_aggregate(const AggregateRecord& rec) override;
  void end() override;

  void on_failure(const FailureRecord& rec) override;

 private:
  std::ostream& out_;
  std::vector<std::string> axis_keys_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> failure_lines_;
};

/// RFC-4180-ish CSV, one row per aggregate; header emitted in begin().
class CsvSink final : public ReportSink {
 public:
  explicit CsvSink(std::ostream& out) : out_(out) {}
  void begin(const std::vector<std::string>& axis_keys) override;
  void on_failure(const FailureRecord& rec) override;
  void on_aggregate(const AggregateRecord& rec) override;

 private:
  std::ostream& out_;
  std::vector<std::string> axis_keys_;
};

/// JSON lines: one object per aggregate, plus (optionally) one per run.
class JsonlSink final : public ReportSink {
 public:
  explicit JsonlSink(std::ostream& out, bool include_runs = false)
      : out_(out), include_runs_(include_runs) {}
  void on_run(const RunRecord& rec) override;
  void on_failure(const FailureRecord& rec) override;
  void on_aggregate(const AggregateRecord& rec) override;

 private:
  std::ostream& out_;
  bool include_runs_;
};

/// Escape a string for inclusion in a JSON document (without quotes).
std::string json_escape(const std::string& s);

}  // namespace vanet::sim

// Multi-seed experiment runner: same configuration, several seeds,
// mean ± stddev aggregation of the headline metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/stats.h"
#include "sim/scenario.h"

namespace vanet::sim {

struct AggregateReport {
  std::string protocol;
  analysis::RunningStats pdr;
  analysis::RunningStats delay_ms;
  analysis::RunningStats hops;
  analysis::RunningStats control_per_delivered;
  analysis::RunningStats collision_fraction;
  analysis::RunningStats reachable_fraction;
  analysis::RunningStats route_breaks;
  analysis::RunningStats discoveries;
  analysis::RunningStats predicted_lifetime_s;
  analysis::RunningStats observed_lifetime_s;
  std::uint64_t total_originated = 0;
  std::uint64_t total_delivered = 0;
  std::uint64_t total_backbone_frames = 0;
  std::vector<ScenarioReport> runs;
};

/// Fold per-seed reports into an AggregateReport. The canonical aggregation
/// used everywhere (run_seeds and ExperimentEngine): order-dependent only on
/// the order of `runs`, which callers keep in seed order, so serial and
/// parallel execution aggregate bit-identically.
AggregateReport aggregate_runs(const std::string& protocol,
                               const std::vector<ScenarioReport>& runs);

/// Run `base` once per seed (overwriting base.seed) and aggregate.
/// Thin wrapper over ExperimentEngine (single cell, jobs=1).
AggregateReport run_seeds(const ScenarioConfig& base,
                          const std::vector<std::uint64_t>& seeds);

/// Convenience: seeds 1..n.
AggregateReport run_seeds(const ScenarioConfig& base, int n_seeds);

/// One instrumented scenario run: the report plus the raw throughput
/// numbers the perf harness tracks (bench_scenario_throughput, CI smoke).
struct TimedRun {
  ScenarioReport report;
  double wall_s = 0.0;                  ///< wall-clock time inside run()
  std::uint64_t events_dispatched = 0;
  std::size_t vehicles = 0;
  // Scheduler allocation telemetry (EventQueue::AllocStats): slab growths
  // happen only during warm-up and oversize_callbacks must stay ~0, so
  // steady-state scheduling allocates nothing per event.
  std::uint64_t sched_slab_allocs = 0;
  std::uint64_t sched_oversize_callbacks = 0;
  std::size_t sched_peak_pending = 0;
  // Scenario cache telemetry: the lifetime memo (analysis::LifetimeMemo) and
  // the per-tick segment snapshot (map::SegmentSnapshot). bench_compare.py
  // watches the warm hit rates — a drop means a cache key regressed.
  std::uint64_t lifetime_memo_hits = 0;
  std::uint64_t lifetime_memo_misses = 0;
  std::uint64_t seg_snapshot_queries = 0;
  std::uint64_t seg_snapshot_hits = 0;    ///< served from the per-node entry
  std::uint64_t seg_snapshot_proven = 0;  ///< answered by the mobility prover
  std::uint64_t seg_snapshot_index_queries = 0;  ///< fell through to the index
  double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(events_dispatched) / wall_s : 0.0;
  }
  /// Fraction of lifetime-scoring calls served without a new integration.
  double lifetime_memo_hit_rate() const {
    const std::uint64_t total = lifetime_memo_hits + lifetime_memo_misses;
    return total > 0 ? static_cast<double>(lifetime_memo_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
  /// Fraction of segment queries served without touching the SegmentIndex
  /// (per-node entry hits plus prover answers).
  double seg_snapshot_hit_rate() const {
    return seg_snapshot_queries > 0
               ? static_cast<double>(seg_snapshot_hits + seg_snapshot_proven) /
                     static_cast<double>(seg_snapshot_queries)
               : 0.0;
  }
  /// Scheduler allocations amortised over the run — ~0 in steady state.
  double sched_allocs_per_event() const {
    return events_dispatched > 0
               ? static_cast<double>(sched_slab_allocs +
                                     sched_oversize_callbacks) /
                     static_cast<double>(events_dispatched)
               : 0.0;
  }
};

TimedRun run_timed(const ScenarioConfig& cfg);

}  // namespace vanet::sim

#include "sim/runner.h"

#include <chrono>
#include <numeric>

#include "sim/experiment.h"

namespace vanet::sim {

AggregateReport aggregate_runs(const std::string& protocol,
                               const std::vector<ScenarioReport>& runs) {
  AggregateReport agg;
  agg.protocol = protocol;
  for (const ScenarioReport& r : runs) {
    agg.pdr.add(r.pdr);
    if (r.delivered > 0) {
      agg.delay_ms.add(r.delay_ms_mean);
      agg.hops.add(r.hops_mean);
    }
    agg.control_per_delivered.add(r.control_per_delivered);
    agg.collision_fraction.add(r.collision_fraction);
    agg.reachable_fraction.add(r.reachable_fraction);
    agg.route_breaks.add(static_cast<double>(r.route_breaks));
    agg.discoveries.add(static_cast<double>(r.discoveries));
    if (r.predicted_lifetime_mean_s > 0.0) {
      agg.predicted_lifetime_s.add(r.predicted_lifetime_mean_s);
    }
    if (r.observed_lifetime_mean_s > 0.0) {
      agg.observed_lifetime_s.add(r.observed_lifetime_mean_s);
    }
    agg.total_originated += r.originated;
    agg.total_delivered += r.delivered;
    agg.total_backbone_frames += r.backbone_frames;
    agg.runs.push_back(r);
  }
  return agg;
}

AggregateReport run_seeds(const ScenarioConfig& base,
                          const std::vector<std::uint64_t>& seeds) {
  ExperimentSpec spec;
  spec.base = base;
  spec.seeds = seeds;
  // Legacy contract: run_seeds throws on a bad run (callers predate failure
  // capture and have no way to inspect ExperimentResult.failures).
  spec.guards.capture = false;
  ExperimentEngine engine{1};
  ExperimentResult result = engine.run(spec);
  return std::move(result.cells.at(0).agg);
}

TimedRun run_timed(const ScenarioConfig& cfg) {
  TimedRun out;
  Scenario scenario{cfg};
  out.vehicles = scenario.vehicle_count();
  // NOLINT-vanet(wall-clock): measures bench throughput (events/sec); never feeds sim state or digests
  const auto t0 = std::chrono::steady_clock::now();
  scenario.run();
  // NOLINT-vanet(wall-clock): measures bench throughput (events/sec); never feeds sim state or digests
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.events_dispatched = scenario.events_dispatched();
  const core::EventQueue::AllocStats& sched = scenario.scheduler_stats();
  out.sched_slab_allocs = sched.slab_allocations;
  out.sched_oversize_callbacks = sched.oversize_callbacks;
  out.sched_peak_pending = sched.peak_pending;
  const NodeStack& stack = scenario.stack();
  out.lifetime_memo_hits = stack.lifetime_memo.stats().hits;
  out.lifetime_memo_misses = stack.lifetime_memo.stats().misses;
  const map::SegmentSnapshot::Stats& snap = stack.seg_snapshot->stats();
  out.seg_snapshot_queries = snap.queries;
  out.seg_snapshot_hits = snap.hits;
  out.seg_snapshot_proven = snap.proven;
  out.seg_snapshot_index_queries = snap.index_queries;
  out.report = scenario.report();
  return out;
}

AggregateReport run_seeds(const ScenarioConfig& base, int n_seeds) {
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(n_seeds));
  std::iota(seeds.begin(), seeds.end(), 1);
  return run_seeds(base, seeds);
}

}  // namespace vanet::sim

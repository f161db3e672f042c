// Deterministic fault injection: node churn, road incidents, planned outages.
//
// A FaultPlan is owned by the scenario and drives the generic fault
// capabilities of the lower layers — net::Network::set_node_up() and
// mobility::GraphMobilityModel::set_segment_blocked() — from two sources:
//
//  - a *planned* schedule (`fault.plan`, parse_fault_plan syntax below):
//    explicit node outages and segment blocks at fixed times, for
//    reproducible what-if experiments and golden pins;
//  - *seeded churn* (`fault.vehicle_mtbf_s` / `fault.rsu_mtbf_s`): per-node
//    crash times drawn from an exponential inter-failure distribution with a
//    fixed downtime per class, for statistical availability studies.
//
// Every random draw comes from the dedicated "fault" RNG stream, so enabling
// or tuning faults never perturbs mobility, MAC, protocol or traffic
// randomness — and with no plan and no churn configured the plan is never
// constructed, no stream is derived and no event is scheduled: runs are
// bit-identical to a build without this subsystem (pinned by the golden
// digests).
//
// Overlap semantics are last-writer-wins: transitions are applied
// idempotently (a crash of an already-down node is a no-op) and a restart
// brings the node up regardless of which fault took it down. The timeline of
// *applied* transitions backs fault_active_at(), the oracle the metrics
// layer uses to classify traffic into fault-active vs fault-free windows.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/sim_time.h"
#include "core/simulator.h"
#include "mobility/graph_mobility.h"
#include "net/network.h"

namespace vanet::sim {

/// `fault.*` scenario keys (see config_kv.cpp / docs/ROBUSTNESS.md).
struct FaultConfig {
  std::string plan;              ///< planned faults, parse_fault_plan syntax
  double vehicle_mtbf_s = 0.0;   ///< mean time between vehicle radio crashes;
                                 ///< 0 disables vehicle churn
  double vehicle_downtime_s = 10.0;
  double rsu_mtbf_s = 0.0;       ///< mean time between RSU outages; 0 = off
  double rsu_downtime_s = 20.0;

  /// Faults are injected iff a plan or a churn rate is configured; an
  /// inactive config has zero side effects.
  bool active() const {
    return !plan.empty() || vehicle_mtbf_s > 0.0 || rsu_mtbf_s > 0.0;
  }
};

/// One entry of the planned schedule.
struct PlannedFault {
  enum class Kind { kNode, kSegment };
  Kind kind = Kind::kNode;
  int id = 0;            ///< node id or road-segment id
  double at_s = 0.0;     ///< outage / block start (simulation seconds)
  double until_s = -1.0; ///< restart / clear; negative = never
};

/// Parses the `fault.plan` string: ';'-separated entries of the form
///   node:<id>:<down_s>[:<up_s>]   — node outage (restart optional)
///   seg:<id>:<block_s>[:<clear_s>] — segment block (clear optional)
/// Whitespace around entries is ignored; empty entries are skipped. Throws
/// std::invalid_argument naming the offending entry on any syntax error.
std::vector<PlannedFault> parse_fault_plan(const std::string& plan);

/// Applied-transition accounting (reported per run).
struct FaultCounters {
  std::uint64_t node_outages = 0;
  std::uint64_t node_restarts = 0;
  std::uint64_t segment_blocks = 0;
  std::uint64_t segment_clears = 0;
};

class FaultPlan {
 public:
  /// `roads` is null unless the scenario drives trips (mobility=graph); the
  /// plan then rejects segment faults at start(). `rng` must be the
  /// dedicated "fault" stream. `duration_s` bounds scheduling: transitions
  /// beyond the horizon are never enqueued.
  FaultPlan(core::Simulator& sim, net::Network& net,
            mobility::GraphMobilityModel* roads, core::Rng& rng,
            FaultConfig cfg, double duration_s);

  /// Validates the configuration (plan syntax, ids in range, churn
  /// parameters) and schedules every planned transition plus the first
  /// seeded crash per node. Throws std::invalid_argument on a bad plan —
  /// before any event is enqueued, so the experiment engine can turn the
  /// error into a structured failure row. Call at most once, before run.
  void start();

  /// True when at least one injected fault (node down or segment blocked)
  /// was active at time `t`. Backed by the applied-transition timeline, so
  /// it answers consistently for any t up to the current simulation time.
  bool fault_active_at(core::SimTime t) const;

  const FaultCounters& counters() const { return counters_; }

 private:
  void apply_node(net::NodeId id, bool up);
  void apply_segment(int seg, bool blocked);
  /// Schedules the next seeded crash of `id` at absolute time `at` (no-op
  /// beyond the horizon); the crash event re-arms restart and next crash.
  void schedule_churn_crash(net::NodeId id, core::SimTime at);
  void mark(core::SimTime t, int delta);

  core::Simulator& sim_;
  net::Network& net_;
  mobility::GraphMobilityModel* roads_;
  core::Rng& rng_;
  FaultConfig cfg_;
  core::SimTime end_;
  bool started_ = false;
  /// (time, active fault count after the transition), appended in event
  /// order — sorted by construction.
  std::vector<std::pair<core::SimTime, int>> timeline_;
  int active_ = 0;
  FaultCounters counters_;
};

}  // namespace vanet::sim

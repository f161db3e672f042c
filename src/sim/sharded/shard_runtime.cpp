#include "sim/sharded/shard_runtime.h"

#include <algorithm>
#include <barrier>
#include <stdexcept>
#include <thread>
#include <utility>

#include "map/region_partition.h"
#include "sim/scenario.h"

namespace vanet::sim::sharded {

/// The per-shard net::ShardBridge: routes cross-cut receptions and unicast
/// verdicts into the owning shard's outbox row. Called only from the shard's
/// own window execution, so the row needs no lock.
class ShardRuntime::Bridge final : public net::ShardBridge {
 public:
  Bridge(ShardRuntime& rt, int shard) : rt_{rt}, shard_{shard} {}

  bool owned(net::NodeId id) const override {
    return rt_.owner_of(id) == shard_;
  }

  void post_reception(const net::ChannelState::Tx& tx,
                      const net::Packet& packet, net::NodeId rx,
                      bool want_verdict) override {
    Handoff h;
    h.tx = tx;
    h.packet = packet;
    h.node = rx;
    h.want_verdict = want_verdict;
    post(rx, std::move(h));
    ++receptions;
  }

  void post_verdict(net::NodeId tx_node, bool delivered) override {
    Handoff h;
    h.is_verdict = true;
    h.node = tx_node;
    h.delivered = delivered;
    post(tx_node, std::move(h));
  }

  core::SimTime handoff_lateness() const override { return kWindow; }

  std::uint64_t receptions = 0;

 private:
  void post(net::NodeId to, Handoff h) {
    rt_.outbox_[static_cast<std::size_t>(shard_)]
               [static_cast<std::size_t>(rt_.owner_of(to))]
                   .push_back(std::move(h));
  }

  ShardRuntime& rt_;
  int shard_;
};

/// A shard's event loop, RNG manager and bridge, plus the handoffs waiting
/// for its next window. The node stack simulating on the loop is the
/// Scenario's.
struct ShardRuntime::Shard {
  Shard(std::uint64_t seed, ShardRuntime& rt, int index)
      : rngs{seed}, bridge{rt, index} {}

  core::Simulator sim;
  core::RngManager rngs;
  Bridge bridge;
  /// Filled by the coordinator between windows, drained at the start of
  /// run_shard_window.
  std::vector<Handoff> inbox;
};

ShardRuntime::ShardRuntime(const ScenarioConfig& cfg,
                           const map::RoadGraph& graph,
                           const map::SegmentIndex& segments,
                           const std::vector<mobility::VehicleState>& initial) {
  if (cfg.phy != PhyModel::kUnitDisk) {
    throw std::invalid_argument(
        "scenario.shards > 1 requires phy.model=unitdisk: lossy models draw "
        "per-reception fades from the sender's RNG, and a cross-shard "
        "reception would consume them out of stream order");
  }
  if (cfg.rsu_count > 0) {
    throw std::invalid_argument(
        "scenario.shards > 1 does not support RSUs (the wired backbone "
        "bypasses the region handoff contract)");
  }
  if (cfg.fault.enabled) {
    throw std::invalid_argument(
        "scenario.shards > 1 does not support fault injection");
  }
  if (cfg.shard_threads < 0) {
    throw std::invalid_argument("scenario.shard_threads must be >= 0");
  }
  const map::RegionPartition partition =
      map::partition_regions(graph, resolve_shard_count(cfg));
  // Static ownership: the region of the segment nearest each vehicle's
  // *initial* position owns its node for the whole run. Vehicles that drive
  // into another region keep their home shard — correctness never depends on
  // ownership matching current geometry, only locality does.
  node_shard_.resize(initial.size());
  for (std::size_t v = 0; v < initial.size(); ++v) {
    const int seg = segments.nearest_segment(initial[v].pos);
    node_shard_[v] = partition.segment_region[static_cast<std::size_t>(seg)];
  }
  const int k = partition.regions;
  threads_ = cfg.shard_threads == 0 ? k : std::min(cfg.shard_threads, k);
  outbox_.assign(static_cast<std::size_t>(k),
                 std::vector<std::vector<Handoff>>(static_cast<std::size_t>(k)));
  shards_.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    shards_.push_back(std::make_unique<Shard>(cfg.seed, *this, s));
  }
}

ShardRuntime::~ShardRuntime() = default;

core::Simulator& ShardRuntime::simulator(int s) {
  return shards_.at(static_cast<std::size_t>(s))->sim;
}

core::RngManager& ShardRuntime::rngs(int s) {
  return shards_.at(static_cast<std::size_t>(s))->rngs;
}

net::ShardBridge& ShardRuntime::bridge(int s) {
  return shards_.at(static_cast<std::size_t>(s))->bridge;
}

void ShardRuntime::distribute_mailboxes() {
  const int k = shards();
  for (int dst = 0; dst < k; ++dst) {
    auto& inbox = shards_[static_cast<std::size_t>(dst)]->inbox;
    // Drain order is part of the determinism contract: source shard
    // 0..K-1, generation order within a source.
    for (int src = 0; src < k; ++src) {
      auto& box = outbox_[static_cast<std::size_t>(src)]
                         [static_cast<std::size_t>(dst)];
      for (Handoff& h : box) inbox.push_back(std::move(h));
      box.clear();
    }
  }
}

void ShardRuntime::share_longest_frame(
    const std::vector<net::Network*>& nets) {
  // A foreign frame that started before this barrier may be resolved on any
  // shard, so every shard's channel must remember as far back as the longest
  // frame started anywhere (see Network::attempt_transmission).
  core::SimTime longest{};
  for (const net::Network* n : nets) {
    longest = std::max(longest, n->longest_frame());
  }
  for (net::Network* n : nets) n->raise_longest_frame(longest);
}

void ShardRuntime::run_shard_window(int shard, net::Network& net) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  // Resolve buffered handoffs first: the shard clock sits exactly at the
  // window-start barrier (run_before advanced it even through empty
  // windows), so resolution timestamps are a pure function of the window
  // grid — not of which worker thread got here first.
  for (Handoff& h : sh.inbox) {
    if (h.is_verdict) {
      net.complete_unicast(h.node, h.delivered);
    } else {
      net.deliver_foreign(h.tx, h.packet, h.node, h.want_verdict);
    }
  }
  sh.inbox.clear();
  if (final_window_) {
    // Inclusive: events scheduled exactly at the end instant run, matching
    // the serial engine's single run_until(duration).
    sh.sim.run_until(window_end_);
  } else {
    sh.sim.run_before(window_end_);
  }
}

void ShardRuntime::run(core::Simulator& coordinator,
                       const std::vector<net::Network*>& nets,
                       core::SimTime end) {
  // Persistent worker pool. Thread t drives shards t, t+T, t+2T, ... in
  // increasing order, so any thread count executes the same shard sequences
  // — threads=1 is the serial reference execution of the identical model.
  std::barrier<> start_gate(threads_ + 1);
  std::barrier<> finish_gate(threads_ + 1);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads_));
  for (int t = 0; t < threads_; ++t) {
    workers.emplace_back([this, t, &nets, &start_gate, &finish_gate] {
      while (true) {
        start_gate.arrive_and_wait();
        if (stop_workers_) return;
        for (int s = t; s < shards(); s += threads_) {
          run_shard_window(s, *nets[static_cast<std::size_t>(s)]);
        }
        finish_gate.arrive_and_wait();
      }
    });
  }

  core::SimTime now{};
  while (true) {
    // Serial coordinator phase: mobility ticks (which refresh every shard's
    // position mirror through the Network tick listeners), density refresh
    // and reachability samples all run while the workers are parked.
    coordinator.run_until(now);
    // Conservative window edge: never past the next coordinator event, so
    // global state is frozen from every shard's point of view inside a
    // window — the core lookahead argument.
    core::SimTime next = std::min(now + kWindow, coordinator.next_event_time());
    next = std::min(next, end);
    window_end_ = next;
    final_window_ = next >= end;
    share_longest_frame(nets);
    distribute_mailboxes();
    start_gate.arrive_and_wait();   // publish window, release workers
    finish_gate.arrive_and_wait();  // all shards reached the window edge
    now = next;
    if (final_window_) break;
  }
  stop_workers_ = true;
  start_gate.arrive_and_wait();
  for (std::thread& w : workers) w.join();
  // Coordinator events at exactly the end instant (final mobility tick on
  // round durations) still run, as they would under the serial engine.
  coordinator.run_until(end);
}

std::uint64_t ShardRuntime::handoff_receptions() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->bridge.receptions;
  return total;
}

}  // namespace vanet::sim::sharded

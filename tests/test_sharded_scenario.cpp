// Sharded engine contract tests (src/sim/sharded/, sim/node_stack.h):
//  - thread-count invariance: the digest-equivalence guarantee that
//    threads=1 and threads=K execute the identical model bit-identically,
//    across protocol families, seeds, shard counts and map sources;
//  - conservation: the sharded run originates exactly the packets the
//    serial run does (the flow schedule is a pure function of the seed);
//  - ownership: the shards' node stacks partition the node id space;
//  - channel memory: a long foreign frame still finds the local records it
//    overlapped when it is resolved at the next barrier;
//  - config restrictions: unsupported combinations throw at construction.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.h"
#include "sim/sharded/shard_runtime.h"

namespace vanet::sim {
namespace {

ScenarioConfig lattice_config(const std::string& protocol,
                              std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration_s = 12.0;
  cfg.mobility = MobilityKind::kManhattan;
  cfg.manhattan.streets_x = 6;
  cfg.manhattan.streets_y = 6;
  cfg.vehicles = 48;
  cfg.protocol = protocol;
  cfg.traffic.flows = 8;
  cfg.traffic.start_s = 2.0;
  cfg.traffic.stop_s = 10.0;
  cfg.traffic.min_pair_distance_m = 200.0;
  return cfg;
}

ScenarioConfig town_config(const std::string& protocol, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration_s = 10.0;
  cfg.map.source = MapSource::kFile;
  cfg.map.file = std::string{VANET_SOURCE_DIR} + "/maps/town.csv";
  cfg.mobility = MobilityKind::kGraph;
  cfg.vehicles = 40;
  cfg.protocol = protocol;
  cfg.traffic.flows = 6;
  cfg.traffic.start_s = 2.0;
  cfg.traffic.stop_s = 8.0;
  cfg.traffic.min_pair_distance_m = 200.0;
  return cfg;
}

struct RunResult {
  std::string digest;
  std::uint64_t events = 0;
  std::uint64_t originated = 0;

  bool operator==(const RunResult&) const = default;
};

RunResult run_once(ScenarioConfig cfg, int shards, int threads) {
  cfg.shards = shards;
  cfg.shard_threads = threads;
  Scenario s{std::move(cfg)};
  s.run();
  const ScenarioReport r = s.report();
  return {report_digest(r), s.events_dispatched(), r.originated};
}

// The tentpole equivalence guarantee: any worker-thread count executes the
// sharded model bit-identically. threads=1 is the serial reference
// execution; threads=K is the fully parallel one.
TEST(ShardedScenario, ThreadCountInvariantAcrossProtocolsAndSeeds) {
  for (const char* protocol : {"flooding", "greedy", "aodv", "dsdv"}) {
    for (const std::uint64_t seed : {1ull, 7ull}) {
      for (const int shards : {2, 3}) {
        const ScenarioConfig cfg = lattice_config(protocol, seed);
        const RunResult serial = run_once(cfg, shards, 1);
        const RunResult parallel = run_once(cfg, shards, shards);
        EXPECT_EQ(serial, parallel)
            << protocol << " seed=" << seed << " shards=" << shards;
      }
    }
  }
}

TEST(ShardedScenario, ThreadCountInvariantOnImportedMapGraphMobility) {
  for (const char* protocol : {"flooding", "greedy", "aodv"}) {
    const ScenarioConfig cfg = town_config(protocol, 11);
    const RunResult serial = run_once(cfg, 3, 1);
    const RunResult parallel = run_once(cfg, 3, 3);
    EXPECT_EQ(serial, parallel) << protocol;
  }
}

TEST(ShardedScenario, RepeatedRunsAreDeterministic) {
  const ScenarioConfig cfg = lattice_config("greedy", 5);
  EXPECT_EQ(run_once(cfg, 4, 4), run_once(cfg, 4, 4));
}

// Oversubscribed stress: eight shards driven by eight workers (more workers
// than this repo's CI cores) must still match the one-worker execution of
// the same partition. Doubles as the ThreadSanitizer workout for the
// mailbox hand-off and the barrier protocol — the CI tsan job runs this
// suite (see .github/workflows/ci.yml).
TEST(ShardedScenario, EightWayOversubscribedStressMatchesOneWorker) {
  const ScenarioConfig cfg = lattice_config("flooding", 11);
  EXPECT_EQ(run_once(cfg, 8, 1), run_once(cfg, 8, 8));
}

// Channel memory across the cut: every shard prunes at now - W - D, with D
// the longest frame started on any shard. At 200 kbit/s a 1500-byte data
// frame lasts 61.6 ms against 2.9 ms hellos; with this seed the flow's first
// data frame crosses into a shard that has only sent hellos (and pruned
// since). Without the merged D that shard forgets local records the foreign
// frame overlapped, and ChannelState's horizon check aborts the run.
TEST(ShardedScenario, LongForeignFramesKeepTheirChannelHistory) {
  ScenarioConfig cfg = lattice_config("greedy", 3);
  cfg.net.bitrate_bps = 2e5;
  cfg.traffic.payload_bytes = 1500;
  cfg.traffic.flows = 1;
  EXPECT_EQ(run_once(cfg, 2, 1), run_once(cfg, 2, 2));
}

// Every flow is scheduled by exactly one shard and the flow schedule is a
// pure function of the seed, so the sharded run must originate exactly the
// packets the serial engine does — whatever the physics at the cuts.
TEST(ShardedScenario, OriginatedPacketsMatchSerialEngine) {
  const ScenarioConfig cfg = lattice_config("flooding", 3);
  const RunResult serial = run_once(cfg, 1, 0);
  const RunResult sharded = run_once(cfg, 3, 3);
  EXPECT_GT(serial.originated, 0u);
  EXPECT_EQ(serial.originated, sharded.originated);
}

TEST(ShardedScenario, DensePacketDeliveryStillWorksAcrossCuts) {
  ScenarioConfig cfg = lattice_config("flooding", 2);
  cfg.shards = 4;
  Scenario s{std::move(cfg)};
  ASSERT_TRUE(s.is_sharded());
  EXPECT_EQ(s.shard_count(), 4);
  s.run();
  const ScenarioReport r = s.report();
  EXPECT_GT(r.originated, 0u);
  // Flooding on a dense 6x6 lattice delivers most packets; if the handoff
  // path dropped cross-cut frames wholesale, PDR would collapse toward the
  // single-region fraction.
  EXPECT_GT(r.pdr, 0.5);
  // Cross-shard traffic actually flowed (the run exercised the bridge).
  EXPECT_GT(s.shard_runtime()->handoff_receptions(), 0u);
}

TEST(ShardedScenario, OwnershipPartitionsTheNodeIdSpace) {
  ScenarioConfig cfg = lattice_config("flooding", 1);
  cfg.shards = 3;
  Scenario s{std::move(cfg)};
  const sharded::ShardRuntime* runtime = s.shard_runtime();
  ASSERT_NE(runtime, nullptr);
  ASSERT_EQ(s.stacks().size(), static_cast<std::size_t>(runtime->shards()));
  std::vector<int> seen(s.vehicle_count(), 0);
  for (int shard = 0; shard < runtime->shards(); ++shard) {
    const NodeStack& stack = s.stacks()[static_cast<std::size_t>(shard)];
    for (const net::NodeId id : stack.owned) {
      EXPECT_EQ(runtime->owner_of(id), shard);
      EXPECT_NE(stack.protocols[id], nullptr);
      EXPECT_EQ(&s.protocol_at(id), stack.protocols[id].get());
      ++seen[id];
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(ShardedScenario, SerialPathIsUntouchedForShardsOne) {
  ScenarioConfig cfg = lattice_config("flooding", 1);
  cfg.shards = 1;
  Scenario s{std::move(cfg)};
  EXPECT_FALSE(s.is_sharded());
  EXPECT_EQ(s.shard_count(), 1);
  EXPECT_EQ(s.shard_thread_count(), 1);
  EXPECT_EQ(s.shard_runtime(), nullptr);
  ASSERT_EQ(s.stacks().size(), 1u);
  EXPECT_EQ(s.stacks().front().owned.size(), s.vehicle_count());
}

TEST(ShardedScenario, RejectsConfigsOutsideTheShardContract) {
  {
    ScenarioConfig cfg = lattice_config("aodv", 1);
    cfg.shards = 2;
    cfg.phy = PhyModel::kShadowing;
    EXPECT_THROW(Scenario{cfg}, std::invalid_argument);
  }
  {
    ScenarioConfig cfg = lattice_config("aodv", 1);
    cfg.shards = 2;
    cfg.rsu_count = 2;
    EXPECT_THROW(Scenario{cfg}, std::invalid_argument);
  }
  {
    ScenarioConfig cfg = lattice_config("aodv", 1);
    cfg.shards = 2;
    cfg.fault.enabled = true;
    EXPECT_THROW(Scenario{cfg}, std::invalid_argument);
  }
  {
    ScenarioConfig cfg = lattice_config("aodv", 1);
    cfg.shards = -1;
    EXPECT_THROW(Scenario{cfg}, std::invalid_argument);
  }
}

// Requested shard counts beyond what the map can sustain clamp to the
// partitioner's effective region count instead of creating empty loops.
TEST(ShardedScenario, ShardCountClampsToPartition) {
  ScenarioConfig cfg = lattice_config("flooding", 1);
  cfg.shards = 4;
  Scenario s{std::move(cfg)};
  ASSERT_TRUE(s.is_sharded());
  EXPECT_EQ(s.shard_count(), 4);  // a 6x6 lattice has plenty of segments
  EXPECT_EQ(s.shard_thread_count(), 4);
}

}  // namespace
}  // namespace vanet::sim

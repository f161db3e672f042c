// MAC edge cases around the contended-channel hot path: half-duplex
// rejection, same-instant frame ends, queue-capacity accounting, unicast
// retry exhaustion, and collisions with very long frames.
//
// Timing in these tests leans on two documented invariants: events at equal
// timestamps dispatch in insertion order, and contention_window = 1 makes
// every backoff draw zero slots (deterministic attempt times).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "net/network.h"

namespace vanet::net {
namespace {

struct MacNet {
  core::Simulator sim;
  core::RngManager rngs{7};
  std::unique_ptr<Network> net;
  std::vector<std::vector<Packet>> received;

  explicit MacNet(const std::vector<core::Vec2>& positions, double range,
                  NetworkConfig cfg) {
    net = std::make_unique<Network>(sim, nullptr,
                                    std::make_unique<UnitDiskModel>(range),
                                    rngs.stream("net"), cfg);
    received.resize(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const NodeId id = net->add_rsu(positions[i]);
      net->set_receive_handler(id, [this, id](const Packet& p) {
        received[id].push_back(p);
      });
    }
  }

  Packet data_packet(std::size_t bytes, NodeId rx = kBroadcastId) {
    Packet p;
    p.kind = PacketKind::kData;
    p.size_bytes = bytes;
    p.rx = rx;
    p.created_at = sim.now();
    return p;
  }
};

// Deterministic MAC: 1 Mbit/s so frame durations are round, zero backoff
// slots, 10 ms slot time.
NetworkConfig deterministic_cfg() {
  NetworkConfig cfg;
  cfg.bitrate_bps = 1e6;
  cfg.contention_window = 1;
  cfg.slot_time = core::SimTime::millis(10);
  return cfg;
}

TEST(MacEdge, HalfDuplexReceiverRejectsFrameEndingAsItTransmits) {
  // X--B in sense range, X--A out of range, A--B in range. X's frame makes B
  // defer to t=20 ms; A (which cannot hear X) is scheduled so its frame ends
  // at exactly t=20 ms. B's deferred attempt was enqueued earlier than A's
  // finish event, so at t=20 ms B starts transmitting first and A's unicast
  // must be rejected half-duplex — observable as a retry with zero
  // collisions and a perfectly in-range receiver.
  MacNet t{{{40.0, 0.0}, {150.0, 0.0}, {250.0, 0.0}}, 120.0,
           deterministic_cfg()};
  const NodeId x = 0, b = 1, a = 2;
  // 1210-byte frame at 1 Mbit/s with 40 bytes overhead: exactly 10 ms.
  t.net->send(x, t.data_packet(1210));
  t.net->send(b, t.data_packet(1210));
  // A's 210-byte frame lasts 2 ms; started at 18 ms it ends at 20 ms.
  t.sim.schedule(core::SimTime::millis(18),
                 [&] { t.net->send(a, t.data_packet(210, b)); });
  t.sim.run_until(core::SimTime::millis(20));
  // B heard X's frame but not A's (rejected half-duplex, pending retry).
  ASSERT_EQ(t.received[b].size(), 1u);
  EXPECT_EQ(t.received[b][0].tx, x);
  EXPECT_EQ(t.net->counters().unicast_retries, 1u);
  EXPECT_EQ(t.net->counters().receptions_collided, 0u);

  // The retry goes through once B's own frame is done.
  t.sim.run_until(core::SimTime::seconds(1.0));
  ASSERT_EQ(t.received[b].size(), 2u);
  EXPECT_EQ(t.received[b][1].tx, a);
  EXPECT_EQ(t.net->counters().unicast_failures, 0u);
}

TEST(MacEdge, SameInstantFrameEndsResolveToTheRightTransmissions) {
  // Two independent pairs far apart; both transmitters start at t=0 with
  // equal-length frames, so both finish events fire at the same instant.
  // Each node must resolve its own channel record (a lookup by end time
  // could alias) and deliver to its own receiver.
  MacNet t{{{0.0, 0.0}, {50.0, 0.0}, {10000.0, 0.0}, {10050.0, 0.0}}, 100.0,
           deterministic_cfg()};
  t.net->send(0, t.data_packet(1210, 1));
  t.net->send(2, t.data_packet(1210, 3));
  t.sim.run_until(core::SimTime::seconds(1.0));
  ASSERT_EQ(t.received[1].size(), 1u);
  ASSERT_EQ(t.received[3].size(), 1u);
  EXPECT_EQ(t.received[1][0].tx, 0u);
  EXPECT_EQ(t.received[3][0].tx, 2u);
  EXPECT_EQ(t.net->counters().receptions_ok, 2u);
  EXPECT_EQ(t.net->counters().receptions_collided, 0u);
  EXPECT_EQ(t.net->counters().unicast_retries, 0u);
}

TEST(MacEdge, QueueCapacityDropsAreCountedAgainstEnqueues) {
  NetworkConfig cfg = deterministic_cfg();
  cfg.queue_capacity = 3;
  MacNet t{{{0.0, 0.0}, {50.0, 0.0}}, 100.0, cfg};
  for (int i = 0; i < 8; ++i) t.net->send(0, t.data_packet(64));
  t.sim.run_until(core::SimTime::seconds(1.0));
  EXPECT_EQ(t.net->counters().frames_enqueued, 8u);
  EXPECT_EQ(t.net->counters().frames_dropped_queue, 5u);
  EXPECT_EQ(t.received[1].size(), 3u);
  // Drops happen at enqueue time: nothing else was transmitted or retried.
  EXPECT_EQ(t.net->counters().frames_sent, 3u);
}

TEST(MacEdge, RetryExhaustionInvokesFailureHandlerExactlyOncePerPacket) {
  MacNet t{{{0.0, 0.0}, {500.0, 0.0}}, 100.0, deterministic_cfg()};
  std::map<std::uint64_t, int> failures_by_uid;
  t.net->set_unicast_fail_handler(
      0, [&](const Packet& p) { ++failures_by_uid[p.uid]; });
  // Two unicasts to an unreachable destination, back to back.
  t.net->send(0, t.data_packet(64, 1));
  t.net->send(0, t.data_packet(64, 1));
  t.sim.run_until(core::SimTime::seconds(5.0));
  // Each packet: 1 attempt + 3 retries, then exactly one failure callback.
  EXPECT_EQ(t.net->counters().unicast_retries, 6u);
  EXPECT_EQ(t.net->counters().unicast_failures, 2u);
  EXPECT_EQ(t.net->counters().frames_sent, 8u);
  ASSERT_EQ(failures_by_uid.size(), 2u);
  for (const auto& [uid, count] : failures_by_uid) {
    EXPECT_EQ(count, 1) << "uid " << uid;
  }
  EXPECT_EQ(t.received[1].size(), 0u);
}

TEST(MacEdge, FrameLongerThanFiftyMillisecondsStillCollides) {
  // Hidden terminals A--R--C (A and C cannot sense each other) at
  // 10 kbit/s. A's 1000-byte frame lasts 0.832 s; C's 10-byte frame
  // overlaps its first 40 ms, so R must lose A's frame to a collision. At
  // t=200 ms a far node's attempt prunes the channel; that prune must keep
  // C's record while A's frame is still in the air.
  NetworkConfig cfg = deterministic_cfg();
  cfg.bitrate_bps = 1e4;
  MacNet t{{{0.0, 0.0}, {100.0, 0.0}, {200.0, 0.0}, {10000.0, 0.0}}, 120.0,
           cfg};
  const NodeId a = 0, r = 1, c = 2, far = 3;
  t.net->send(a, t.data_packet(1000));
  t.net->send(c, t.data_packet(10));
  t.sim.schedule(core::SimTime::millis(200),
                 [&] { t.net->send(far, t.data_packet(10)); });
  t.sim.run_until(core::SimTime::seconds(2.0));
  EXPECT_EQ(t.net->counters().frames_sent, 3u);
  // R lost both C's frame and A's frame; nobody else hears anything.
  EXPECT_EQ(t.net->counters().receptions_collided, 2u);
  EXPECT_EQ(t.net->counters().receptions_ok, 0u);
  EXPECT_TRUE(t.received[r].empty());
}

}  // namespace
}  // namespace vanet::net

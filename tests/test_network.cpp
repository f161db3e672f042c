// MAC + channel behaviour: reach, contention, hidden-terminal collisions,
// unicast retries, queue overflow, backbone transfers.
#include "net/network.h"
#include "util/constant_velocity.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>


namespace vanet::net {
namespace {

struct StaticNet {
  core::Simulator sim;
  core::RngManager rngs{7};
  std::unique_ptr<Network> net;
  std::vector<std::vector<Packet>> received;

  explicit StaticNet(const std::vector<core::Vec2>& positions,
                     double range = 100.0, NetworkConfig cfg = {}) {
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

  Packet make_packet(std::size_t bytes = 64) {
    Packet p;
    p.kind = PacketKind::kData;
    p.size_bytes = bytes;
    p.created_at = sim.now();
    return p;
  }
};

TEST(Network, BroadcastReachesOnlyNodesInRange) {
  StaticNet t{{{0.0, 0.0}, {80.0, 0.0}, {150.0, 0.0}, {90.0, 30.0}}};
  t.net->send(0, t.make_packet());
  t.sim.run_until(core::SimTime::seconds(1.0));
  EXPECT_EQ(t.received[1].size(), 1u);
  EXPECT_EQ(t.received[2].size(), 0u);  // 150 m > 100 m range
  EXPECT_EQ(t.received[3].size(), 1u);  // ~95 m
  EXPECT_EQ(t.received[0].size(), 0u);  // no self-reception
  EXPECT_EQ(t.net->counters().frames_sent, 1u);
  EXPECT_EQ(t.net->counters().receptions_ok, 2u);
}

TEST(Network, UnicastOnlyDeliveredToIntendedReceiver) {
  StaticNet t{{{0.0, 0.0}, {50.0, 0.0}, {60.0, 20.0}}};
  Packet p = t.make_packet();
  p.rx = 1;
  t.net->send(0, std::move(p));
  t.sim.run_until(core::SimTime::seconds(1.0));
  EXPECT_EQ(t.received[1].size(), 1u);
  EXPECT_EQ(t.received[2].size(), 0u);  // in range but not addressed
  EXPECT_EQ(t.net->counters().unicast_retries, 0u);
}

TEST(Network, UnicastToUnreachableRetriesThenFails) {
  StaticNet t{{{0.0, 0.0}, {500.0, 0.0}}};
  std::vector<Packet> failures;
  t.net->set_unicast_fail_handler(
      0, [&](const Packet& p) { failures.push_back(p); });
  Packet p = t.make_packet();
  p.rx = 1;
  t.net->send(0, std::move(p));
  t.sim.run_until(core::SimTime::seconds(2.0));
  EXPECT_EQ(t.received[1].size(), 0u);
  EXPECT_EQ(failures.size(), 1u);
  EXPECT_EQ(t.net->counters().unicast_retries, 3u);  // retry limit
  EXPECT_EQ(t.net->counters().unicast_failures, 1u);
  EXPECT_EQ(t.net->counters().frames_sent, 4u);  // 1 + 3 retries
}

TEST(Network, FailureHandlerMayResendAtTheFailingNode) {
  // Each failure sends two more frames at the failing node while the failed
  // frame still heads its queue, so the queue grows, and later wraps, under
  // the frame the MAC is finishing. Frames must still fail in the order they
  // were sent, each after its full retry budget.
  StaticNet t{{{0.0, 0.0}, {500.0, 0.0}}};
  constexpr std::uint32_t kFrames = 9;
  std::uint32_t next_seq = 0;
  std::vector<std::uint32_t> failed;
  auto send_next = [&] {
    Packet p = t.make_packet();
    p.rx = 1;
    p.seq = next_seq++;
    t.net->send(0, std::move(p));
  };
  t.net->set_unicast_fail_handler(0, [&](const Packet& p) {
    failed.push_back(p.seq);
    for (int k = 0; k < 2 && next_seq < kFrames; ++k) send_next();
  });
  send_next();
  t.sim.run_until(core::SimTime::seconds(10.0));
  std::vector<std::uint32_t> in_order(kFrames);
  std::iota(in_order.begin(), in_order.end(), 0u);
  EXPECT_EQ(failed, in_order);
  EXPECT_EQ(t.net->counters().unicast_failures, kFrames);
  EXPECT_EQ(t.net->counters().frames_sent, 4u * kFrames);  // 1 + 3 retries
}

TEST(Network, HiddenTerminalCollides) {
  // A and C cannot hear each other (190 m apart, 100 m range) but both reach
  // B. Long frames guarantee temporal overlap despite random backoff.
  StaticNet t{{{0.0, 0.0}, {95.0, 0.0}, {190.0, 0.0}}};
  t.net->send(0, t.make_packet(4096));
  t.net->send(2, t.make_packet(4096));
  t.sim.run_until(core::SimTime::seconds(1.0));
  EXPECT_EQ(t.received[1].size(), 0u);
  EXPECT_GE(t.net->counters().receptions_collided, 1u);
}

TEST(Network, CarrierSenseSerialisesNeighbors) {
  // A and B hear each other; both have traffic for C. Carrier sense should
  // defer one and deliver both frames.
  StaticNet t{{{0.0, 0.0}, {50.0, 0.0}, {25.0, 40.0}}};
  t.net->send(0, t.make_packet(2048));
  t.net->send(1, t.make_packet(2048));
  t.sim.run_until(core::SimTime::seconds(1.0));
  EXPECT_EQ(t.received[2].size(), 2u);
  EXPECT_EQ(t.net->counters().receptions_collided, 0u);
}

TEST(Network, QueueOverflowDropsFrames) {
  NetworkConfig cfg;
  cfg.queue_capacity = 4;
  StaticNet t{{{0.0, 0.0}, {50.0, 0.0}}, 100.0, cfg};
  for (int i = 0; i < 10; ++i) t.net->send(0, t.make_packet());
  t.sim.run_until(core::SimTime::seconds(1.0));
  EXPECT_EQ(t.net->counters().frames_dropped_queue, 6u);
  EXPECT_EQ(t.received[1].size(), 4u);
}

TEST(Network, FrameKindCountersSplit) {
  StaticNet t{{{0.0, 0.0}, {50.0, 0.0}}};
  Packet data = t.make_packet();
  Packet ctrl = t.make_packet();
  ctrl.kind = PacketKind::kControl;
  Packet hello = t.make_packet();
  hello.kind = PacketKind::kHello;
  t.net->send(0, std::move(data));
  t.net->send(0, std::move(ctrl));
  t.net->send(0, std::move(hello));
  t.sim.run_until(core::SimTime::seconds(1.0));
  EXPECT_EQ(t.net->counters().data_frames_sent, 1u);
  EXPECT_EQ(t.net->counters().control_frames_sent, 1u);
  EXPECT_EQ(t.net->counters().hello_frames_sent, 1u);
}

TEST(Network, BackboneTransfersWithFixedDelay) {
  StaticNet t{{{0.0, 0.0}, {5000.0, 0.0}}};
  t.net->connect_backbone();
  ASSERT_TRUE(t.net->backbone_connected(0, 1));
  Packet p = t.make_packet();
  t.net->backbone_send(0, 1, std::move(p));
  t.sim.run_until(core::SimTime::millis(1));
  EXPECT_EQ(t.received[1].size(), 0u);  // 2 ms delay not yet elapsed
  t.sim.run_until(core::SimTime::millis(5));
  EXPECT_EQ(t.received[1].size(), 1u);
  EXPECT_EQ(t.net->counters().backbone_frames, 1u);
}

TEST(Network, UidsAreUnique) {
  StaticNet t{{{0.0, 0.0}, {50.0, 0.0}}};
  t.net->send(0, t.make_packet());
  t.net->send(0, t.make_packet());
  t.sim.run_until(core::SimTime::seconds(1.0));
  ASSERT_EQ(t.received[1].size(), 2u);
  EXPECT_NE(t.received[1][0].uid, t.received[1][1].uid);
}

TEST(Network, VehicleNodesTrackMobility) {
  core::Simulator sim;
  core::RngManager rngs{9};
  auto model = std::make_unique<mobility::ConstantVelocityModel>();
  model->add_vehicle({0.0, 0.0}, {1.0, 0.0}, 0.0);     // stationary sender
  model->add_vehicle({80.0, 0.0}, {1.0, 0.0}, 40.0);   // drives away
  mobility::MobilityManager mgr{sim, std::move(model), rngs.stream("m")};
  Network net{sim, &mgr, std::make_unique<UnitDiskModel>(100.0),
              rngs.stream("net")};
  net.add_vehicle_node(0);
  net.add_vehicle_node(1);
  int received = 0;
  net.set_receive_handler(1, [&](const Packet&) { ++received; });
  mgr.start();

  Packet p;
  p.kind = PacketKind::kData;
  net.send(0, p);
  sim.run_until(core::SimTime::seconds(2.0));
  EXPECT_EQ(received, 1);  // in range at t=0

  // After 2 s the receiver is at x=160: out of range.
  net.send(0, p);
  sim.run_until(core::SimTime::seconds(4.0));
  EXPECT_EQ(received, 1);
  EXPECT_NE(net.reachability_components(100.0)[0],
            net.reachability_components(100.0)[1]);
}

/// True when `a` and `b` share a component of the `range`-disk graph.
bool connected(const Network& net, NodeId a, NodeId b, double range) {
  const std::vector<std::uint32_t> labels = net.reachability_components(range);
  return labels[a] == labels[b];
}

TEST(Network, ReachabilityOracle) {
  // Chain 0-1-2 with 80 m spacing (connected at 100 m) plus an isolated
  // node 3 at 500 m.
  StaticNet t{{{0.0, 0.0}, {80.0, 0.0}, {160.0, 0.0}, {500.0, 0.0}}};
  EXPECT_TRUE(connected(*t.net, 0, 2, 100.0));
  EXPECT_TRUE(connected(*t.net, 2, 0, 100.0));
  EXPECT_TRUE(connected(*t.net, 1, 1, 100.0));
  EXPECT_FALSE(connected(*t.net, 0, 3, 100.0));
  // A longer radio closes the gap.
  EXPECT_TRUE(connected(*t.net, 0, 3, 400.0));
}

TEST(Network, ReachabilityCrossesBackbone) {
  // Two islands, each with an RSU; wired backbone joins them.
  core::Simulator sim;
  core::RngManager rngs{7};
  Network net{sim, nullptr, std::make_unique<UnitDiskModel>(100.0),
              rngs.stream("net")};
  const NodeId a = net.add_rsu({0.0, 0.0});
  const NodeId b = net.add_rsu({5000.0, 0.0});
  const NodeId near_a = net.add_rsu({60.0, 0.0});
  const NodeId near_b = net.add_rsu({5060.0, 0.0});
  EXPECT_FALSE(connected(net, near_a, near_b, 100.0));
  net.connect_backbone();
  EXPECT_TRUE(connected(net, near_a, near_b, 100.0));
  (void)a;
  (void)b;
}

TEST(NetworkDeathTest, BackboneSendBetweenUnconnectedAborts) {
  StaticNet t{{{0.0, 0.0}, {50.0, 0.0}}};
  // connect_backbone never called.
  Packet p = t.make_packet();
  EXPECT_DEATH(t.net->backbone_send(0, 1, std::move(p)), "unconnected");
}

TEST(NetworkDeathTest, VehicleNodesMustFollowVehicleIdOrder) {
  core::Simulator sim;
  core::RngManager rngs{9};
  auto model = std::make_unique<mobility::ConstantVelocityModel>();
  model->add_vehicle({0.0, 0.0}, {1.0, 0.0}, 0.0);
  model->add_vehicle({10.0, 0.0}, {1.0, 0.0}, 0.0);
  mobility::MobilityManager mgr{sim, std::move(model), rngs.stream("m")};
  Network net{sim, &mgr, std::make_unique<UnitDiskModel>(100.0),
              rngs.stream("net")};
  EXPECT_DEATH(net.add_vehicle_node(1), "vehicle-id order");
}

TEST(Network, PositionVelocityAccessors) {
  core::Simulator sim;
  core::RngManager rngs{9};
  auto model = std::make_unique<mobility::ConstantVelocityModel>();
  model->add_vehicle({10.0, 5.0}, {0.0, 1.0}, 7.0, 1.5);
  mobility::MobilityManager mgr{sim, std::move(model), rngs.stream("m")};
  Network net{sim, &mgr, std::make_unique<UnitDiskModel>(100.0),
              rngs.stream("net")};
  net.add_vehicle_node(0);
  const NodeId rsu = net.add_rsu({99.0, 1.0});

  EXPECT_EQ(net.position(0), (core::Vec2{10.0, 5.0}));
  EXPECT_EQ(net.velocity(0), (core::Vec2{0.0, 7.0}));
  EXPECT_EQ(net.acceleration(0), (core::Vec2{0.0, 1.5}));
  EXPECT_TRUE(net.is_rsu(rsu));
  EXPECT_FALSE(net.is_rsu(0));
  EXPECT_EQ(net.velocity(rsu), (core::Vec2{0.0, 0.0}));
  EXPECT_EQ(net.rsu_ids(), (std::vector<NodeId>{1}));
}

// --- fault support: down nodes (driven by sim::FaultPlan) ------------------

TEST(Network, DownReceiverDecodesNothing) {
  StaticNet t{{{0.0, 0.0}, {80.0, 0.0}, {90.0, 30.0}}};
  t.net->set_node_up(1, false);
  EXPECT_FALSE(t.net->node_up(1));
  t.net->send(0, t.make_packet());
  t.sim.run_until(core::SimTime::seconds(1.0));
  EXPECT_EQ(t.received[1].size(), 0u);  // down: radio off
  EXPECT_EQ(t.received[2].size(), 1u);  // unaffected neighbour
  t.net->set_node_up(1, true);
  t.net->send(0, t.make_packet());
  t.sim.run_until(core::SimTime::seconds(2.0));
  EXPECT_EQ(t.received[1].size(), 1u);  // back up: decodes again
}

TEST(Network, DownSenderDropsFramesAndCountsThem) {
  StaticNet t{{{0.0, 0.0}, {80.0, 0.0}}};
  t.net->set_node_up(0, false);
  t.net->send(0, t.make_packet());
  t.net->send(0, t.make_packet());
  t.sim.run_until(core::SimTime::seconds(1.0));
  EXPECT_EQ(t.received[1].size(), 0u);
  EXPECT_EQ(t.net->counters().frames_sent, 0u);
  EXPECT_EQ(t.net->counters().frames_dropped_down, 2u);
}

TEST(Network, CrashMidTransmissionAbortsTheFrame) {
  StaticNet t{{{0.0, 0.0}, {80.0, 0.0}}};
  t.net->send(0, t.make_packet());
  // The frame is in flight (tx takes ~ size/bitrate); crash the sender
  // before it completes — the receiver must never decode it.
  t.net->set_node_up(0, false);
  t.sim.run_until(core::SimTime::seconds(1.0));
  EXPECT_EQ(t.received[1].size(), 0u);
  EXPECT_EQ(t.net->counters().receptions_ok, 0u);
}

TEST(Network, RestartRecordsRecoveryLatency) {
  StaticNet t{{{0.0, 0.0}, {80.0, 0.0}}};
  t.net->set_node_up(1, false);
  t.sim.run_until(core::SimTime::seconds(1.0));
  t.net->set_node_up(1, true);  // restart at t = 1 s
  t.net->send(0, t.make_packet());
  t.sim.run_until(core::SimTime::seconds(2.0));
  ASSERT_EQ(t.received[1].size(), 1u);
  // Recovery latency = restart -> first decoded frame (the tx duration,
  // a few ms at 64 bytes); exactly one sample, short but nonzero.
  EXPECT_EQ(t.net->recovery_latency().count(), 1u);
  EXPECT_GT(t.net->recovery_latency().mean(), 0.0);
  EXPECT_LT(t.net->recovery_latency().mean(), 1.0);
}

TEST(Network, ReachabilityIgnoresDownNodes) {
  // Chain 0-1-2 with 80 m spacing; node 1 is the only relay.
  StaticNet t{{{0.0, 0.0}, {80.0, 0.0}, {160.0, 0.0}}};
  EXPECT_TRUE(connected(*t.net, 0, 2, 100.0));
  t.net->set_node_up(1, false);
  EXPECT_FALSE(connected(*t.net, 0, 2, 100.0));
  EXPECT_FALSE(connected(*t.net, 0, 1, 100.0));  // down endpoint
  t.net->set_node_up(1, true);
  EXPECT_TRUE(connected(*t.net, 0, 2, 100.0));
}

}  // namespace
}  // namespace vanet::net

#include "net/hello.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "mobility/constant_velocity.h"
#include "net/fading.h"

namespace vanet::net {
namespace {

struct HelloFixture {
  core::Simulator sim;
  core::RngManager rngs{17};
  std::unique_ptr<mobility::MobilityManager> mgr;
  std::unique_ptr<Network> net;
  std::unique_ptr<HelloService> hello;

  /// Two vehicles: id 0 stationary at origin, id 1 at `x1` with velocity vx1.
  HelloFixture(double x1, double vx1, double range = 100.0) {
    auto model = std::make_unique<mobility::ConstantVelocityModel>();
    model->add_vehicle({0.0, 0.0}, {1.0, 0.0}, 0.0);
    model->add_vehicle({x1, 0.0}, {vx1 >= 0.0 ? 1.0 : -1.0, 0.0},
                       std::abs(vx1));
    mgr = std::make_unique<mobility::MobilityManager>(sim, std::move(model),
                                                      rngs.stream("m"));
    net = std::make_unique<Network>(sim, mgr.get(),
                                    std::make_unique<UnitDiskModel>(range),
                                    rngs.stream("net"));
    net->add_vehicle_node(0);
    net->add_vehicle_node(1);
    hello = std::make_unique<HelloService>(*net, rngs.stream("hello"));
    for (NodeId id : net->node_ids()) {
      net->set_receive_handler(id, [this, id](const Packet& p) {
        if (p.kind == PacketKind::kHello) hello->on_frame(id, p);
      });
    }
  }
};

TEST(Hello, NeighborsDiscoverEachOther) {
  HelloFixture f{50.0, 0.0};
  f.mgr->start();
  f.hello->start(f.net->node_ids());
  f.sim.run_until(core::SimTime::seconds(2.5));
  EXPECT_EQ(f.hello->table(0).size(), 1u);
  EXPECT_EQ(f.hello->table(1).size(), 1u);
  const NeighborInfo* nbr = f.hello->table(0).find(1);
  ASSERT_NE(nbr, nullptr);
  EXPECT_NEAR(nbr->pos.x, 50.0, 1.0);
  EXPECT_FALSE(nbr->rsu);
}

TEST(Hello, BeaconsCarryKinematics) {
  HelloFixture f{60.0, -20.0};
  f.mgr->start();
  f.hello->start(f.net->node_ids());
  f.sim.run_until(core::SimTime::seconds(1.5));
  const NeighborInfo* nbr = f.hello->table(0).find(1);
  ASSERT_NE(nbr, nullptr);
  EXPECT_NEAR(nbr->vel.x, -20.0, 1e-9);
}

TEST(Hello, PredictedPositionDeadReckons) {
  NeighborInfo info;
  info.pos = {100.0, 0.0};
  info.vel = {-10.0, 5.0};
  info.last_heard = core::SimTime::seconds(1.0);
  const core::Vec2 p = info.predicted_pos(core::SimTime::seconds(3.0));
  EXPECT_DOUBLE_EQ(p.x, 80.0);
  EXPECT_DOUBLE_EQ(p.y, 10.0);
}

TEST(Hello, DepartedNeighborExpiresAndReportsLoss) {
  // Vehicle 1 drives away at 40 m/s; leaves the 100 m disk after ~1.5 s.
  HelloFixture f{40.0, 40.0};
  std::vector<NodeId> lost;
  f.hello->set_loss_callback(0, [&](NodeId id) { lost.push_back(id); });
  f.mgr->start();
  f.hello->start(f.net->node_ids());
  f.sim.run_until(core::SimTime::seconds(2.0));
  ASSERT_EQ(f.hello->table(0).size(), 1u);  // heard while in range
  f.sim.run_until(core::SimTime::seconds(8.0));
  EXPECT_EQ(f.hello->table(0).size(), 0u);  // expired after 3 s silence
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], 1u);
}

TEST(Hello, BeaconsCountAsHelloFrames) {
  HelloFixture f{50.0, 0.0};
  f.mgr->start();
  f.hello->start(f.net->node_ids());
  f.sim.run_until(core::SimTime::seconds(5.0));
  // ~5 beacons per node in 5 s at 1 Hz (+- jitter).
  const auto sent = f.net->counters().hello_frames_sent;
  EXPECT_GE(sent, 8u);
  EXPECT_LE(sent, 14u);
}

TEST(Hello, LossyPhyKeepsNeighborTablesConsistent) {
  // Two stationary vehicles under Nakagami-1 (Rayleigh) fading at a distance
  // where a good fraction of beacons drop. Whatever the channel does, the
  // table contract must hold: per-sender sequence numbers arrive strictly
  // increasing (so estimators can count the misses), a decoded beacon always
  // lands in the table, expiry only ever removes the real neighbor, and an
  // expired neighbor is re-admitted by its next decoded beacon.
  core::Simulator sim;
  core::RngManager rngs{29};
  auto model = std::make_unique<mobility::ConstantVelocityModel>();
  model->add_vehicle({0.0, 0.0}, {1.0, 0.0}, 0.0);
  model->add_vehicle({130.0, 0.0}, {1.0, 0.0}, 0.0);
  auto mgr = std::make_unique<mobility::MobilityManager>(sim, std::move(model),
                                                         rngs.stream("m"));
  Network net{sim, mgr.get(),
              std::make_unique<NakagamiFadingModel>(analysis::LogNormalParams{},
                                                    /*m=*/1),
              rngs.stream("net")};
  net.add_vehicle_node(0);
  net.add_vehicle_node(1);
  HelloService hello{net, rngs.stream("hello")};
  for (NodeId id : net.node_ids()) {
    net.set_receive_handler(id, [&hello, id](const Packet& p) {
      if (p.kind == PacketKind::kHello) hello.on_frame(id, p);
    });
  }

  std::vector<std::uint32_t> seqs;        // decoded at 0, in arrival order
  bool neighbor_present_at_decode = true; // observer runs after the update
  hello.set_frame_observer(0, [&](const Packet& p, const HelloHeader& h) {
    ASSERT_EQ(p.origin, 1u);
    seqs.push_back(h.seq);
    neighbor_present_at_decode &= hello.table(0).contains(1);
  });
  std::vector<NodeId> lost;
  hello.set_loss_callback(0, [&](NodeId id) {
    lost.push_back(id);
    EXPECT_FALSE(hello.table(0).contains(id));  // expiry removed it
  });

  mgr->start();
  hello.start(net.node_ids());
  sim.run_until(core::SimTime::seconds(60.0));

  // The channel actually dropped beacons: fewer decoded than sent, and at
  // least one sequence gap among those decoded.
  ASSERT_GE(seqs.size(), 5u);
  EXPECT_LT(seqs.size(), 55u);
  bool gap = false;
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_LT(seqs[i - 1], seqs[i]);  // strictly increasing, never replayed
    gap |= seqs[i] > seqs[i - 1] + 1;
  }
  EXPECT_TRUE(gap);
  EXPECT_TRUE(neighbor_present_at_decode);
  // Only the real neighbor ever expired, and losing it was survivable: the
  // table either holds it now or its re-admission is one decoded beacon away
  // (both states are consistent — no phantom entries either way).
  for (NodeId id : lost) EXPECT_EQ(id, 1u);
  EXPECT_LE(hello.table(0).size(), 1u);
}

TEST(Hello, RsuFlagPropagates) {
  core::Simulator sim;
  core::RngManager rngs{23};
  Network net{sim, nullptr, std::make_unique<UnitDiskModel>(100.0),
              rngs.stream("net")};
  const NodeId a = net.add_rsu({0.0, 0.0});
  const NodeId b = net.add_rsu({50.0, 0.0});
  HelloService hello{net, rngs.stream("hello")};
  for (NodeId id : {a, b}) {
    net.set_receive_handler(id, [&hello, id](const Packet& p) {
      if (p.kind == PacketKind::kHello) hello.on_frame(id, p);
    });
  }
  hello.start(net.node_ids());
  sim.run_until(core::SimTime::seconds(2.0));
  const NeighborInfo* nbr = hello.table(a).find(b);
  ASSERT_NE(nbr, nullptr);
  EXPECT_TRUE(nbr->rsu);
}

TEST(Hello, ExpiryShorterThanIntervalThrows) {
  core::Simulator sim;
  core::RngManager rngs{1};
  Network net{sim, nullptr, std::make_unique<UnitDiskModel>(100.0),
              rngs.stream("net")};
  HelloConfig bad;
  bad.interval = core::SimTime::seconds(2.0);
  bad.expiry = core::SimTime::seconds(1.0);
  EXPECT_THROW(HelloService(net, rngs.stream("hello"), bad),
               std::invalid_argument);
  bad.interval = core::SimTime::zero();
  EXPECT_THROW(HelloService(net, rngs.stream("hello"), bad),
               std::invalid_argument);
}

TEST(NeighborTable, SnapshotSortedAndExpireReturnsIds) {
  NeighborTable t;
  for (NodeId id : {5u, 1u, 9u}) {
    NeighborInfo info;
    info.id = id;
    info.last_heard = core::SimTime::seconds(id == 9u ? 10.0 : 0.0);
    t.update(info);
  }
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].id, 1u);
  EXPECT_EQ(snap[2].id, 9u);
  const auto gone =
      t.expire(core::SimTime::seconds(5.0), core::SimTime::seconds(3.0));
  EXPECT_EQ(gone, (std::vector<NodeId>{1u, 5u}));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.contains(9u));
}

}  // namespace
}  // namespace vanet::net

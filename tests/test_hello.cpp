#include "net/hello.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.h"
#include "net/fading.h"
#include "sim/config_kv.h"
#include "util/constant_velocity.h"

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
  hello.set_frame_observer(0, [&](const Packet& p) {
    ASSERT_EQ(p.origin, 1u);
    seqs.push_back(p.header_as<HelloHeader>()->seq);
    neighbor_present_at_decode &= hello.table(0).find(1) != nullptr;
  });
  std::vector<NodeId> lost;
  hello.set_loss_callback(0, [&](NodeId id) {
    lost.push_back(id);
    EXPECT_EQ(hello.table(0).find(id), nullptr);  // expiry removed it
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
  // The hello timing rules live with the config keys (sim/config_kv.h): a
  // scenario never builds a HelloService from a config that breaks them.
  sim::ScenarioConfig cfg;
  cfg.hello.interval = core::SimTime::seconds(2.0);
  cfg.hello.expiry = core::SimTime::seconds(1.0);
  try {
    sim::validate_config(cfg);
    FAIL() << "accepted expiry < interval";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("hello.expiry_s"), std::string::npos)
        << e.what();
  }
  cfg.hello.interval = core::SimTime::zero();
  EXPECT_THROW(sim::validate_config(cfg), std::invalid_argument);
}

TEST(NeighborTable, SnapshotSortedAndExpireReturnsIds) {
  BeaconStore store;
  NeighborTable t{store};
  std::uint64_t uid = 0;
  for (NodeId id : {5u, 1u, 9u}) {
    NeighborInfo info;
    info.id = id;
    info.last_heard = core::SimTime::seconds(id == 9u ? 10.0 : 0.0);
    t.update(store.intern(++uid, info));
  }
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].id, 1u);
  EXPECT_EQ(snap[2].id, 9u);
  const auto gone =
      t.expire(core::SimTime::seconds(5.0), core::SimTime::seconds(3.0));
  EXPECT_EQ(gone, (std::vector<NodeId>{1u, 5u}));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_NE(t.find(9u), nullptr);
  EXPECT_EQ(store.live(), 1u);  // the expired rows released their records
}

TEST(Hello, ReceiversOfOneFrameShareOneRecord) {
  // One sender and four receivers whose radios are down: their beacons stop
  // at the MAC door and their sweeps still run, so the only frames are the
  // ones fed in below, each at the instant it is decoded.
  core::Simulator sim;
  core::RngManager rngs{31};
  Network net{sim, nullptr, std::make_unique<UnitDiskModel>(100.0),
              rngs.stream("net")};
  for (int i = 0; i < 5; ++i) net.add_rsu({10.0 * i, 0.0});
  for (NodeId id : net.node_ids()) net.set_node_up(id, false);
  HelloService hello{net, rngs.stream("hello")};
  hello.start(net.node_ids());
  constexpr NodeId kSender = 0;
  auto beacon = [](std::uint64_t uid, double x) {
    Packet p;
    p.kind = PacketKind::kHello;
    p.origin = kSender;
    p.uid = uid;
    auto h = std::make_shared<HelloHeader>();
    h->pos = {x, 0.0};
    p.header = std::move(h);
    return p;
  };

  // Frame 1 reaches all four receivers in one event: one record for all.
  const Packet f1 = beacon(1, 1.0);
  for (NodeId r : {1u, 2u, 3u, 4u}) hello.on_frame(r, f1);
  EXPECT_EQ(hello.records().live(), 1u);
  const NeighborInfo* rec1 = hello.table(1).find(kSender);
  ASSERT_NE(rec1, nullptr);
  for (NodeId r : {2u, 3u, 4u}) EXPECT_EQ(hello.table(r).find(kSender), rec1);
  const core::SimTime t1 = sim.now();

  // Frames 2 and 3 reach fewer receivers. Receivers 1 and 2 missed both and
  // still read frame 1, whose record outlives its sender's newer beacons.
  sim.run_until(core::SimTime::seconds(1.0));
  const Packet f2 = beacon(2, 2.0);
  for (NodeId r : {3u, 4u}) hello.on_frame(r, f2);
  sim.run_until(core::SimTime::seconds(2.0));
  hello.on_frame(4, beacon(3, 3.0));
  EXPECT_EQ(hello.records().live(), 3u);
  for (NodeId r : {1u, 2u}) EXPECT_EQ(hello.table(r).find(kSender), rec1);
  EXPECT_EQ(rec1->pos.x, 1.0);
  EXPECT_EQ(rec1->last_heard, t1);
  EXPECT_EQ(hello.table(3).find(kSender)->pos.x, 2.0);
  EXPECT_EQ(hello.table(4).find(kSender)->pos.x, 3.0);

  // Frame 1's record goes once both its tables have expired it, and the
  // store is empty once every table has.
  sim.run_until(core::SimTime::seconds(4.5));
  EXPECT_EQ(hello.table(1).size(), 0u);
  EXPECT_EQ(hello.table(2).size(), 0u);
  EXPECT_EQ(hello.records().live(), 2u);
  sim.run_until(core::SimTime::seconds(10.0));
  for (NodeId r : {1u, 2u, 3u, 4u}) EXPECT_EQ(hello.table(r).size(), 0u);
  EXPECT_EQ(hello.records().live(), 0u);

  // A freed slot takes the next frame.
  for (NodeId r : {1u, 2u}) hello.on_frame(r, beacon(4, 4.0));
  EXPECT_EQ(hello.records().live(), 1u);
  EXPECT_EQ(hello.table(2).find(kSender)->pos.x, 4.0);
}

TEST(Hello, FrameAtUnstartedNodeBuildsTableLazily) {
  // Beacons started for only some nodes still reach the others, whose
  // tables must appear on first reception.
  HelloFixture f{50.0, 0.0};
  f.mgr->start();
  f.hello->start({1});
  f.sim.run_until(core::SimTime::seconds(2.5));
  ASSERT_EQ(f.hello->table(0).size(), 1u);
  EXPECT_NE(f.hello->table(0).find(1), nullptr);
  EXPECT_EQ(f.hello->table(1).size(), 0u);  // 0 never beacons
}

TEST(Hello, CallbacksRegisteredBeforeStartFire) {
  HelloFixture f{40.0, 40.0};  // 1 drives out of range after ~1.5 s
  std::vector<NodeId> lost;
  int observed = 0;
  int extended = 0;
  f.hello->set_loss_callback(0, [&](NodeId id) { lost.push_back(id); });
  f.hello->set_frame_observer(0, [&](const Packet&) { ++observed; });
  f.hello->set_beacon_extension(1, [&](HelloHeader&) -> std::size_t {
    ++extended;
    return 0;
  });
  f.mgr->start();
  f.hello->start(f.net->node_ids());
  f.sim.run_until(core::SimTime::seconds(8.0));
  EXPECT_GE(observed, 1);
  EXPECT_GE(extended, observed);
  EXPECT_EQ(lost, (std::vector<NodeId>{1}));
}

/// The table's contract, stated as a std::map from id to row.
struct ReferenceNeighborTable {
  std::map<NodeId, NeighborInfo> rows;

  void update(const NeighborInfo& info) { rows[info.id] = info; }
  std::vector<NodeId> expire(core::SimTime now, core::SimTime expiry) {
    std::vector<NodeId> gone;
    for (auto it = rows.begin(); it != rows.end();) {
      if (now - it->second.last_heard > expiry) {
        gone.push_back(it->first);
        it = rows.erase(it);
      } else {
        ++it;
      }
    }
    return gone;
  }
};

bool same_row(const NeighborInfo& a, const NeighborInfo& b) {
  return a.id == b.id && a.pos.x == b.pos.x && a.pos.y == b.pos.y &&
         a.vel.x == b.vel.x && a.rsu == b.rsu && a.last_heard == b.last_heard;
}

TEST(NeighborTable, MatchesReferenceModel) {
  const core::SimTime expiry = core::SimTime::seconds(3.0);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const int universe : {4, 40, 400}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " universe " << universe);
      // Ids span the whole range: the ends 0 and 0xfffffffe (the largest
      // id that is not kBroadcastId) plus a random pool.
      core::Rng rng{seed * 1000 + static_cast<std::uint64_t>(universe)};
      std::vector<NodeId> ids{0u, 0xfffffffeu};
      while (ids.size() < static_cast<std::size_t>(universe)) {
        ids.push_back(static_cast<NodeId>(rng.uniform_int(1, 0xfffffffd)));
      }
      BeaconStore store;
      NeighborTable table{store};
      ReferenceNeighborTable ref;
      std::uint64_t uid = 0;
      core::SimTime now{};
      for (int step = 0; step < 4000; ++step) {
        const NodeId id = ids[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
        const double op = rng.uniform(0.0, 1.0);
        if (op < 0.6) {
          NeighborInfo info;
          info.id = id;
          info.pos = {rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)};
          info.vel = {rng.uniform(-30.0, 30.0), 0.0};
          info.rsu = rng.uniform(0.0, 1.0) < 0.1;
          info.last_heard = now;
          table.update(store.intern(++uid, info));
          ref.update(info);
        } else if (op < 0.7) {
          // Time moves in steps up to the expiry window, so entries both
          // survive sweeps and lapse, and expired ids come back later.
          now += core::SimTime::millis(rng.uniform_int(0, 1500));
          ASSERT_EQ(table.expire(now, expiry), ref.expire(now, expiry))
              << "step " << step;
        } else {
          const NeighborInfo* row = table.find(id);
          const auto it = ref.rows.find(id);
          ASSERT_EQ(row != nullptr, it != ref.rows.end()) << "step " << step;
          if (row != nullptr) {
            ASSERT_TRUE(same_row(*row, it->second)) << "step " << step;
          }
        }
        const auto snap = table.snapshot();
        ASSERT_EQ(table.size(), ref.rows.size()) << "step " << step;
        ASSERT_EQ(snap.size(), ref.rows.size()) << "step " << step;
        // One table: each row holds its own record, replaced or expired
        // ones were released.
        ASSERT_EQ(store.live(), ref.rows.size()) << "step " << step;
        auto it = ref.rows.begin();
        for (std::size_t k = 0; k < snap.size(); ++k, ++it) {
          ASSERT_TRUE(same_row(snap[k], it->second))
              << "step " << step << " row " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace vanet::net

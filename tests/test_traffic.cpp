#include "sim/traffic.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "routing/protocol.h"
#include "util/constant_velocity.h"

namespace vanet::sim {
namespace {

/// Protocol stub that records originate() calls.
class RecordingProtocol final : public routing::RoutingProtocol {
 public:
  struct Sent {
    net::NodeId dst;
    std::uint32_t flow;
    std::uint32_t seq;
  };
  bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                 std::size_t) override {
    sent.push_back({dst, flow, seq});
    return true;
  }
  void handle_frame(const net::Packet&) override {}
  std::string_view name() const override { return "recording"; }
  routing::Category category() const override {
    return routing::Category::kConnectivity;
  }
  std::vector<Sent> sent;
};

struct TrafficFixture {
  core::Simulator sim;
  core::RngManager rngs{31};
  std::unique_ptr<mobility::MobilityManager> mgr;
  std::unique_ptr<net::Network> net;
  std::vector<std::unique_ptr<RecordingProtocol>> stubs;
  routing::ProtocolEvents events;
  Metrics metrics;

  explicit TrafficFixture(int vehicles, double spacing = 300.0) {
    auto model = std::make_unique<mobility::ConstantVelocityModel>();
    for (int i = 0; i < vehicles; ++i) {
      model->add_vehicle({i * spacing, 0.0}, {1.0, 0.0}, 0.0);
    }
    mgr = std::make_unique<mobility::MobilityManager>(sim, std::move(model),
                                                      rngs.stream("m"));
    net = std::make_unique<net::Network>(
        sim, mgr.get(), std::make_unique<net::UnitDiskModel>(100.0),
        rngs.stream("net"));
    for (int i = 0; i < vehicles; ++i) {
      net->add_vehicle_node(static_cast<mobility::VehicleId>(i));
      stubs.push_back(std::make_unique<RecordingProtocol>());
    }
  }

  std::vector<routing::RoutingProtocol*> raw() {
    std::vector<routing::RoutingProtocol*> out;
    for (auto& s : stubs) out.push_back(s.get());
    return out;
  }
};

TEST(Traffic, SchedulesExpectedPacketCount) {
  TrafficFixture f{10};
  TrafficConfig cfg;
  cfg.flows = 3;
  cfg.rate_pps = 4.0;
  cfg.start_s = 1.0;
  cfg.stop_s = 6.0;
  CbrTraffic traffic{f.sim, *f.net, f.raw(), 10, f.metrics, f.rngs.stream("t"),
                     cfg};
  traffic.start();
  f.sim.run_until(core::SimTime::seconds(10.0));
  std::size_t total = 0;
  for (auto& s : f.stubs) total += s->sent.size();
  // 3 flows x 5 s x 4 pps = 60 packets (exact: offsets stay inside the window).
  EXPECT_EQ(total, 60u);
  EXPECT_EQ(f.metrics.originated(), 60u);
}

TEST(Traffic, FlowsHaveDistinctEndpointsAndStableSeqs) {
  TrafficFixture f{12};
  TrafficConfig cfg;
  cfg.flows = 5;
  cfg.min_pair_distance_m = 500.0;
  CbrTraffic traffic{f.sim, *f.net, f.raw(), 12, f.metrics, f.rngs.stream("t"),
                     cfg};
  traffic.start();
  ASSERT_EQ(traffic.flows().size(), 5u);
  for (const auto& flow : traffic.flows()) {
    EXPECT_NE(flow.src, flow.dst);
    EXPECT_LT(flow.src, 12u);
    EXPECT_LT(flow.dst, 12u);
    const double d = (f.net->position(flow.src) - f.net->position(flow.dst)).norm();
    EXPECT_GE(d, 500.0);
  }
  f.sim.run_until(core::SimTime::seconds(60.0));
  // Per-flow sequence numbers are consecutive from 0.
  for (auto& stub : f.stubs) {
    std::map<std::uint32_t, std::uint32_t> next_seq;
    for (const auto& sent : stub->sent) {
      EXPECT_EQ(sent.seq, next_seq[sent.flow]++);
    }
  }
}

TEST(Traffic, SameSeedSameFlows) {
  TrafficFixture a{10}, b{10};
  TrafficConfig cfg;
  cfg.flows = 4;
  core::RngManager ra{77}, rb{77};
  CbrTraffic ta{a.sim, *a.net, a.raw(), 10, a.metrics, ra.stream("t"), cfg};
  CbrTraffic tb{b.sim, *b.net, b.raw(), 10, b.metrics, rb.stream("t"), cfg};
  ta.start();
  tb.start();
  ASSERT_EQ(ta.flows().size(), tb.flows().size());
  for (std::size_t i = 0; i < ta.flows().size(); ++i) {
    EXPECT_EQ(ta.flows()[i].src, tb.flows()[i].src);
    EXPECT_EQ(ta.flows()[i].dst, tb.flows()[i].dst);
  }
}

}  // namespace
}  // namespace vanet::sim

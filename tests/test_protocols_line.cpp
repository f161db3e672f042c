// Every protocol must deliver multi-hop data over a static line topology —
// the minimal functional check for the whole registry, plus protocol-specific
// behaviours (zone confinement, gateway suppression, ticket bounds).
#include <gtest/gtest.h>

#include "routing/geographic/grid_gateway.h"
#include "routing/registry.h"
#include "util/line_fixture.h"

namespace vanet::testing {
namespace {

/// The chain's world: a road graph along the line for CAR, one segment per
/// ~2 hops with 4 vehicles counted on each, and the middle node as the bus.
void add_line_world(LineFixtureOptions& opt) {
  const double length = (opt.nodes - 1) * opt.spacing;
  const int nx = std::max(2, static_cast<int>(length / 200.0) + 1);
  auto graph = std::make_shared<map::RoadGraph>(nx, 1, length / (nx - 1));
  auto density =
      std::make_shared<map::SegmentDensityOracle>(graph->segment_count());
  for (std::size_t s = 0; s < graph->segment_count(); ++s) {
    density->set_count(static_cast<int>(s), 4.0);
  }
  opt.road_graph = std::move(graph);
  opt.density = std::move(density);
  opt.ferries = {2};  // middle node doubles as the bus
}

class LineDelivery : public ::testing::TestWithParam<const char*> {};

/// Six nodes 80 m apart at 100 m range: five hops from end to end.
LineFixtureOptions five_hop_chain() {
  LineFixtureOptions opt;
  opt.nodes = 6;
  opt.spacing = 80.0;
  opt.range = 100.0;
  add_line_world(opt);
  return opt;
}

/// Send seq 1 from node 0 to node 5 after a warm-up long enough for
/// proactive protocols: a distance vector piggybacked on hellos (dsdv, etx)
/// advances one hop per beacon round.
void send_across(LineFixture& f) {
  f.run_to(12.0);
  f.send(0, 5, /*seq=*/1);
  f.run_to(25.0);
}

TEST_P(LineDelivery, FiveHopChainDelivers) {
  LineFixture f{GetParam(), five_hop_chain()};
  send_across(f);
  EXPECT_EQ(f.delivered_count(0, 1), 1u)
      << GetParam() << " failed to deliver across 5 hops";
}

TEST_P(LineDelivery, EachHopChargedOnceAndACopyNeverDeliveredTwice) {
  LineFixture f{GetParam(), five_hop_chain()};
  send_across(f);
  ASSERT_EQ(f.delivered_count(0, 1), 1u);
  // Unicast protocols charge all five sends; the flood family charges only
  // the four rebroadcasts, not the source's own broadcast.
  const std::string name = GetParam();
  const bool flood = name == "flooding" || name == "biswas" ||
                     name == "zone" || name == "grid";
  EXPECT_EQ(f.delivered.front().hops, flood ? 4 : 5) << name;
  // A second copy reaching the destination is not handed to the app again.
  const net::Packet copy = f.delivered.front();
  f.protocols[5]->handle_frame(copy);
  EXPECT_EQ(f.delivered_count(0, 1), 1u) << name;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, LineDelivery,
                         ::testing::Values("flooding", "biswas", "aodv", "dsr",
                                           "dsdv", "pbr", "taleb", "abedi",
                                           "greedy", "zone", "grid", "rear",
                                           "gvgrid", "car", "yan", "yan-ss",
                                           "bus", "drr", "rover",
                                           "niude"));
// "wedde" is deliberately absent: its road-condition rating rejects parked,
// deserted roads by design — see Behavior.WeddeDeliversInFlowingTraffic.

TEST(Flooding, DuplicatesSuppressedPerNode) {
  LineFixtureOptions opt;
  opt.nodes = 4;
  LineFixture f{"flooding", opt};
  f.run_to(1.0);
  f.send(0, 3, 1);
  f.run_to(5.0);
  // Each of the two intermediate nodes forwards exactly once; the origin
  // transmit plus two relays = 3 data frames.
  EXPECT_EQ(f.net->counters().data_frames_sent, 3u);
  EXPECT_EQ(f.delivered_count(0, 1), 1u);
}

TEST(Flooding, TtlBoundsPropagation) {
  // 20 hops exceeds the flood TTL of 16: the far end must NOT receive.
  LineFixtureOptions opt;
  opt.nodes = 21;
  LineFixture f{"flooding", opt};
  f.run_to(1.0);
  f.send(0, 20, 1);
  f.run_to(10.0);
  EXPECT_EQ(f.delivered_count(0, 1), 0u);
  EXPECT_GT(f.events.data_dropped_ttl, 0u);
}

TEST(Zone, NodesOutsideCorridorStaySilent) {
  // A line plus one node far off-axis: the off-axis node hears the source
  // but must not rebroadcast (outside the corridor).
  LineFixtureOptions opt;
  opt.nodes = 4;
  opt.spacing = 80.0;
  LineFixture f{"zone", opt};
  f.run_to(1.0);
  f.send(0, 3, 1);
  f.run_to(5.0);
  EXPECT_EQ(f.delivered_count(0, 1), 1u);
  // On-axis relays only: source + 2 intermediates.
  EXPECT_LE(f.net->counters().data_frames_sent, 3u);
}

TEST(Grid, GatewaySuppressionReducesForwards) {
  // Nodes bunched two-per-cell: only one per cell (the gateway) relays.
  LineFixtureOptions opt;
  opt.nodes = 8;
  opt.spacing = 40.0;  // two nodes per 100 m... with 500 m cells: all one cell
  opt.range = 100.0;
  LineFixture f{"grid", opt};
  f.run_to(3.0);  // hello warm-up for the election
  f.send(0, 7, 1);
  f.run_to(8.0);
  EXPECT_EQ(f.delivered_count(0, 1), 1u);
  // Flooding would transmit 7 data frames (everyone but the destination);
  // gateway suppression must do strictly better.
  EXPECT_LT(f.net->counters().data_frames_sent, 7u);
}

TEST(Yan, ProbeOverheadBoundedByTickets) {
  LineFixtureOptions opt;
  opt.nodes = 6;
  add_line_world(opt);
  opt.deps.yan_tickets = 1;  // single probe
  LineFixture yan1{"yan", opt};
  yan1.run_to(5.0);
  yan1.send(0, 5, 1);
  yan1.run_to(15.0);
  const auto frames1 = yan1.net->counters().control_frames_sent;
  EXPECT_EQ(yan1.delivered_count(0, 1), 1u);

  LineFixture aodv{"aodv", [] {
                     LineFixtureOptions o;
                     o.nodes = 6;
                     return o;
                   }()};
  aodv.run_to(5.0);
  aodv.send(0, 5, 1);
  aodv.run_to(15.0);
  // Ticket probing unicasts along the chain; AODV floods. On a line both
  // are linear, but probing must not exceed the flood's control count.
  EXPECT_LE(frames1, aodv.net->counters().control_frames_sent + 2);
}

TEST(Dsdv, ProactiveTablesForwardWithoutDiscovery) {
  LineFixtureOptions opt;
  opt.nodes = 4;
  LineFixture f{"dsdv", opt};
  f.run_to(10.0);  // several advertisement rounds
  f.send(0, 3, 1);
  f.run_to(12.0);
  EXPECT_EQ(f.delivered_count(0, 1), 1u);
  EXPECT_EQ(f.events.discoveries_started, 0u);  // no on-demand phase
  // The table dumps ride on the hellos: no control frame of its own.
  EXPECT_EQ(f.net->counters().control_frames_sent, 0u);
  EXPECT_GT(f.net->counters().hello_frames_sent, 0u);
}

TEST(Greedy, DropsAtVoid) {
  // Gap in the chain: greedy cannot cross a 250 m hole with 100 m radios.
  LineFixtureOptions opt;
  opt.nodes = 3;
  opt.spacing = 250.0;
  LineFixture f{"greedy", opt};
  f.run_to(3.0);
  f.send(0, 2, 1);
  f.run_to(8.0);
  EXPECT_EQ(f.delivered_count(0, 1), 0u);
  EXPECT_GT(f.events.data_dropped_no_route, 0u);
}

TEST(GridGateway, ElectionIsDeterministic) {
  LineFixtureOptions opt;
  opt.nodes = 3;
  opt.spacing = 10.0;  // all in one cell
  LineFixture f{"grid", opt};
  f.run_to(3.0);
  int gateways = 0;
  for (auto& p : f.protocols) {
    auto* g = dynamic_cast<routing::GridGatewayProtocol*>(p.get());
    ASSERT_NE(g, nullptr);
    if (g->is_gateway()) ++gateways;
  }
  EXPECT_EQ(gateways, 1);  // exactly one gateway per cell
}

}  // namespace
}  // namespace vanet::testing

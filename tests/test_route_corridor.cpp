// Map query layer for the road-geometry protocols: RouteCorridor distance
// queries, SegmentCells grouping, the interior-ambiguity analysis, and the
// reported-segment ⇔ nearest-segment equivalence the incremental density
// oracle is built on.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "map/builders.h"
#include "map/route_corridor.h"
#include "map/segment_cells.h"
#include "mobility/graph_mobility.h"

namespace vanet::map {
namespace {

/// U-shaped road: the straight line between the tips crosses a roadless gap.
///   1(0,1000) ── 2(1000,1000)
///   │                       │
///   0(0,0)          3(1000,0)
RoadGraph u_graph() {
  RoadGraph g;
  g.add_intersection({0.0, 0.0});
  g.add_intersection({0.0, 1000.0});
  g.add_intersection({1000.0, 1000.0});
  g.add_intersection({1000.0, 0.0});
  g.add_segment(0, 1);  // seg 0: west leg
  g.add_segment(1, 2);  // seg 1: north leg
  g.add_segment(2, 3);  // seg 2: east leg
  return g;
}

TEST(RouteCorridor, FollowsTheRoadRouteNotTheStraightLine) {
  const RoadGraph g = u_graph();
  const SegmentIndex idx{g};
  const core::Vec2 src{0.0, 10.0}, dst{1000.0, 10.0};
  const RouteCorridor c = RouteCorridor::between(
      g, src, dst, idx.nearest_segment(src), idx.nearest_segment(dst));
  ASSERT_TRUE(c.route_found());
  // The whole U: the route 0-1-2-3 and the endpoint segments (already on it).
  EXPECT_EQ(c.segments(), (std::vector<int>{0, 1, 2}));

  // On the roads: inside. In the roadless gap the straight line crosses:
  // far from the corridor even though it is ON the src→dst line.
  EXPECT_DOUBLE_EQ(c.distance_to({0.0, 500.0}), 0.0);
  EXPECT_DOUBLE_EQ(c.distance_to({500.0, 1000.0}), 0.0);
  EXPECT_DOUBLE_EQ(c.distance_to({500.0, 10.0}), 500.0);
  EXPECT_TRUE(c.contains({400.0, 900.0}, 150.0));
  EXPECT_FALSE(c.contains({500.0, 10.0}, 250.0));
}

TEST(RouteCorridor, MidBlockEndpointsAreAlwaysCovered) {
  // Endpoints whose nearest intersection hangs off a different street than
  // their nearest segment: the endpoint segments are appended to the route.
  RoadGraph g = u_graph();
  const int spur = g.add_intersection({1400.0, 0.0});
  g.add_segment(3, spur);  // seg 3: east spur
  const SegmentIndex idx{g};
  const core::Vec2 src{0.0, 400.0}, dst{1390.0, 20.0};
  const RouteCorridor c = RouteCorridor::between(
      g, src, dst, idx.nearest_segment(src), idx.nearest_segment(dst));
  ASSERT_TRUE(c.route_found());
  // Route 0→spur plus nothing new (endpoint segments 0 and 3 are on it).
  EXPECT_EQ(c.segments(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_LE(c.distance_to({1390.0, 20.0}), 20.0 + 1e-9);
}

TEST(RouteCorridor, DisconnectedEndpointsReportNoRoute) {
  RoadGraph g;  // two separate roads
  g.add_intersection({0.0, 0.0});
  g.add_intersection({500.0, 0.0});
  g.add_intersection({0.0, 5000.0});
  g.add_intersection({500.0, 5000.0});
  g.add_segment(0, 1);
  g.add_segment(2, 3);
  const SegmentIndex idx{g};
  const core::Vec2 src{100.0, 0.0}, dst{100.0, 5000.0};
  const RouteCorridor c = RouteCorridor::between(
      g, src, dst, idx.nearest_segment(src), idx.nearest_segment(dst));
  EXPECT_FALSE(c.route_found());
  // Still carries the endpoint segments so distance queries stay meaningful.
  EXPECT_EQ(c.segments(), (std::vector<int>{0, 1}));

  const RouteCorridor empty;
  EXPECT_FALSE(empty.route_found());
  EXPECT_EQ(empty.distance_to({0.0, 0.0}),
            std::numeric_limits<double>::infinity());
}

TEST(RouteCorridor, SameIntersectionEndpointsYieldTheLocalStreet) {
  // Both endpoints resolve to intersection 0: the route is the single-node
  // path, and the corridor is exactly the endpoint segments appended to it.
  const RoadGraph g = u_graph();
  const SegmentIndex idx{g};
  const core::Vec2 src{0.0, 480.0}, dst{10.0, 450.0};
  const RouteCorridor c = RouteCorridor::between(
      g, src, dst, idx.nearest_segment(src), idx.nearest_segment(dst));
  ASSERT_TRUE(c.route_found());
  EXPECT_EQ(c.segments(), (std::vector<int>{0}));
}

TEST(SegmentCells, GroupsSegmentsByMidpointDeterministically) {
  const RoadGraph g = u_graph();
  const SegmentIndex idx{g};
  const SegmentCells cells{g, 600.0};
  // Midpoints (0,500), (500,1000), (1000,500) land in three distinct
  // buckets; ids follow first appearance over ascending segment ids.
  ASSERT_EQ(cells.cell_count(), 3);
  EXPECT_EQ(cells.cell_of_segment(0), 0);
  EXPECT_EQ(cells.cell_of_segment(1), 1);
  EXPECT_EQ(cells.cell_of_segment(2), 2);
  EXPECT_EQ(cells.anchor(0), (core::Vec2{0.0, 500.0}));
  EXPECT_EQ(cells.anchor(1), (core::Vec2{500.0, 1000.0}));
  // Membership of a position follows its nearest street, not its bucket.
  EXPECT_EQ(cells.cell_at({80.0, 400.0}, idx), 0);
  EXPECT_EQ(cells.cell_at({900.0, 950.0}, idx), 1);
  EXPECT_EQ(cells.cell_at({990.0, 100.0}, idx), 2);
}

TEST(SegmentCells, MergesCoLocatedSegmentsAndAveragesAnchors) {
  RoadGraph g;
  g.add_intersection({0.0, 0.0});
  g.add_intersection({100.0, 0.0});
  g.add_intersection({100.0, 100.0});
  g.add_segment(0, 1);  // midpoint (50, 0)
  g.add_segment(1, 2);  // midpoint (100, 50)
  g.add_segment(0, 2);  // midpoint (50, 50)
  const SegmentCells cells{g, 1000.0};  // one giant bucket
  ASSERT_EQ(cells.cell_count(), 1);
  for (int seg = 0; seg < 3; ++seg) EXPECT_EQ(cells.cell_of_segment(seg), 0);
  EXPECT_NEAR(cells.anchor(0).x, (50.0 + 100.0 + 50.0) / 3.0, 1e-12);
  EXPECT_NEAR(cells.anchor(0).y, (0.0 + 50.0 + 50.0) / 3.0, 1e-12);
}

TEST(AmbiguousSegments, LatticesAreEntirelyUnambiguous) {
  // The lattice constructor's graph takes the is_grid() early return; the
  // same lattice added edge by edge runs the full pair analysis, which must
  // agree.
  const RoadGraph grid{6, 5, 200.0};
  RoadGraph edges;
  for (int i = 0; i < grid.intersection_count(); ++i) {
    edges.add_intersection(grid.intersection_pos(i));
  }
  for (std::size_t s = 0; s < grid.segment_count(); ++s) {
    const auto [a, b] = grid.segment_ends(static_cast<int>(s));
    edges.add_segment(a, b);
  }
  ASSERT_TRUE(grid.is_grid());
  ASSERT_FALSE(edges.is_grid());
  const RoadGraph& edge_built = edges;
  for (const RoadGraph* g : {&grid, &edge_built}) {
    const std::vector<bool> flags = ambiguous_interior_segments(*g);
    ASSERT_EQ(flags.size(), g->segment_count());
    for (std::size_t s = 0; s < flags.size(); ++s) {
      EXPECT_FALSE(flags[s])
          << "segment " << s << (g->is_grid() ? " (grid)" : " (edges)");
    }
  }
}

TEST(AmbiguousSegments, FlagsProperCrossingsAndCollinearOverlap) {
  RoadGraph g;
  g.add_intersection({0.0, 0.0});      // 0
  g.add_intersection({100.0, 100.0});  // 1
  g.add_intersection({0.0, 100.0});    // 2
  g.add_intersection({100.0, 0.0});    // 3
  g.add_intersection({50.0, 200.0});   // 4
  g.add_segment(0, 1);  // seg 0 ─ crosses seg 1 at (50,50)
  g.add_segment(2, 3);  // seg 1
  g.add_segment(2, 4);  // seg 2 ─ clear of both
  const std::vector<bool> flags = ambiguous_interior_segments(g);
  EXPECT_TRUE(flags[0]);
  EXPECT_TRUE(flags[1]);
  EXPECT_FALSE(flags[2]);

  RoadGraph overlap;  // A─B and A─C collinear, C beyond B: AB ⊂ AC
  overlap.add_intersection({0.0, 0.0});
  overlap.add_intersection({500.0, 0.0});
  overlap.add_intersection({1000.0, 0.0});
  overlap.add_segment(0, 1);
  overlap.add_segment(0, 2);
  const std::vector<bool> o = ambiguous_interior_segments(overlap);
  EXPECT_TRUE(o[0]);
  EXPECT_TRUE(o[1]);
}

TEST(AmbiguousSegments, StraightThroughRoadsAreNotFlagged) {
  // A polyline road A─B─C (collinear, opposite directions at B) is the
  // common way imported maps model curves; an interior point of A─B keeps
  // its full distance to B from B─C, so neither is ambiguous.
  RoadGraph g;
  g.add_intersection({0.0, 0.0});
  g.add_intersection({500.0, 0.0});
  g.add_intersection({1000.0, 0.0});
  g.add_segment(0, 1);
  g.add_segment(1, 2);
  const std::vector<bool> flags = ambiguous_interior_segments(g);
  EXPECT_FALSE(flags[0]);
  EXPECT_FALSE(flags[1]);
}

TEST(AmbiguousSegments, FlagsTJunctionModelledWithoutANode) {
  RoadGraph g;  // vertical road whose interior touches a horizontal one
  g.add_intersection({0.0, 0.0});
  g.add_intersection({0.0, 1000.0});
  g.add_intersection({-500.0, 500.0});
  g.add_segment(0, 1);  // x = 0 line
  g.add_segment(2, 0);  // shares node 0; far endpoint (-500,500) is clear
  const std::vector<bool> far_ok = ambiguous_interior_segments(g);
  EXPECT_FALSE(far_ok[0]);
  EXPECT_FALSE(far_ok[1]);

  RoadGraph t;  // same, but the side road's far endpoint lies ON the road
  t.add_intersection({0.0, 0.0});
  t.add_intersection({0.0, 1000.0});
  t.add_intersection({0.0, 500.0});  // sits on segment 0's interior
  t.add_intersection({-500.0, 500.0});
  t.add_segment(0, 1);
  t.add_segment(2, 3);
  const std::vector<bool> flags = ambiguous_interior_segments(t);
  EXPECT_TRUE(flags[0]);
  EXPECT_TRUE(flags[1]);
}

// The contract the incremental density oracle stands on: whenever graph
// mobility reports a segment and the ambiguity analysis does not veto it,
// the SegmentIndex must agree exactly. Hammered over random trips on both an
// irregular town and a lattice.
TEST(ReportedSegment, MatchesNearestSegmentWheneverClaimed) {
  RoadGraph town = u_graph();
  const int market = town.add_intersection({500.0, 500.0});
  town.add_segment(0, market);
  town.add_segment(market, 2);
  town.add_segment(market, 3);

  for (const bool lattice : {false, true}) {
    auto graph = std::make_shared<RoadGraph>(lattice ? RoadGraph{5, 4, 150.0}
                                                     : town);
    const SegmentIndex idx{*graph};
    const std::vector<bool> ambiguous = ambiguous_interior_segments(*graph);
    mobility::GraphMobilityConfig cfg;
    cfg.replan_prob = 0.2;
    cfg.min_trip_m = 100.0;
    mobility::GraphMobilityModel model{graph, cfg};
    core::Rng rng{lattice ? 7u : 13u};
    model.populate(40, rng);

    std::size_t claimed = 0;
    for (int step = 0; step < 400; ++step) {
      model.step(0.1, rng);
      const auto& vs = model.vehicles();
      for (std::size_t i = 0; i < vs.size(); ++i) {
        const int reported = model.reported_segment(i);
        if (reported < 0 || ambiguous[static_cast<std::size_t>(reported)]) {
          continue;
        }
        ++claimed;
        ASSERT_EQ(reported, idx.nearest_segment(vs[i].pos))
            << (lattice ? "lattice" : "town") << " vehicle " << i << " step "
            << step;
      }
    }
    // The claim path must actually carry the refresh, not degenerate to -1.
    EXPECT_GT(claimed, 10000u) << (lattice ? "lattice" : "town");
  }
}

}  // namespace
}  // namespace vanet::map

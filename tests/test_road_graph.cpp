#include "map/road_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/rng.h"
#include "map/segment_index.h"

namespace vanet::map {
namespace {

/// Adjacent intersections of `idx`, sorted ascending.
std::vector<int> sorted_neighbors(const RoadGraph& g, int idx) {
  std::vector<int> out;
  for (const auto& [nbr, seg] : g.adjacency(idx)) out.push_back(nbr);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RoadGraph, LatticeStructure) {
  RoadGraph g{3, 2, 100.0};  // 3x2 intersections
  EXPECT_EQ(g.intersection_count(), 6);
  // Segments: horizontal 2 per row x 2 rows + vertical 3 = 7.
  EXPECT_EQ(g.segment_count(), 7u);
  EXPECT_EQ(g.intersection_pos(0), (core::Vec2{0.0, 0.0}));
  EXPECT_EQ(g.intersection_pos(5), (core::Vec2{200.0, 100.0}));
  EXPECT_TRUE(g.is_grid());
  EXPECT_EQ(g.bbox_min(), (core::Vec2{0.0, 0.0}));
  EXPECT_EQ(g.bbox_max(), (core::Vec2{200.0, 100.0}));
  for (std::size_t s = 0; s < g.segment_count(); ++s) {
    EXPECT_DOUBLE_EQ(g.segment_length(static_cast<int>(s)), 100.0);
  }
}

TEST(RoadGraph, DegenerateHighwayLine) {
  RoadGraph g{5, 1, 500.0};
  EXPECT_EQ(g.intersection_count(), 5);
  EXPECT_EQ(g.segment_count(), 4u);
  EXPECT_EQ(sorted_neighbors(g, 0), (std::vector<int>{1}));
  EXPECT_EQ(sorted_neighbors(g, 2), (std::vector<int>{1, 3}));
}

TEST(RoadGraph, NearestIntersectionClamps) {
  RoadGraph g{3, 3, 100.0};
  EXPECT_EQ(g.nearest_intersection({0.0, 0.0}), 0);
  EXPECT_EQ(g.nearest_intersection({149.0, 51.0}), 4);  // rounds to (1,1)
  EXPECT_EQ(g.nearest_intersection({-500.0, 9000.0}), 6);  // clamped corner
}

TEST(RoadGraph, SegmentBetweenAndEnds) {
  RoadGraph g{3, 3, 100.0};
  const int seg = g.segment_between(0, 1);
  ASSERT_GE(seg, 0);
  EXPECT_EQ(g.segment_ends(seg), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(g.segment_between(0, 4), -1);  // diagonal: not a street
  EXPECT_EQ(g.segment_between(0, 1), g.segment_between(1, 0));
}

TEST(RoadGraph, SegmentOfPosition) {
  RoadGraph g{3, 3, 100.0};
  // Point midway along the street from (0,0) to (100,0).
  const int seg = g.segment_of_position({50.0, 5.0});
  EXPECT_EQ(g.segment_ends(seg), (std::pair<int, int>{0, 1}));
}

TEST(RoadGraph, UniformCostPathIsManhattan) {
  RoadGraph g{4, 4, 100.0};
  const auto path =
      g.shortest_path(0, 15, [](int) { return 1.0; });  // corner to corner
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 15);
  EXPECT_EQ(path.size(), 7u);  // 6 hops = Manhattan distance 3+3
}

TEST(RoadGraph, CostSteersPathAroundExpensiveSegments) {
  RoadGraph g{3, 1, 100.0};  // line 0-1-2: only one path exists
  const auto path = g.shortest_path(0, 2, [](int seg) {
    return seg == 0 ? 1000.0 : 1.0;  // expensive but unavoidable
  });
  EXPECT_EQ(path.size(), 3u);

  RoadGraph grid{3, 3, 100.0};
  // Make the direct middle row expensive; the path should detour but still
  // arrive with minimum total cost.
  const auto detour = grid.shortest_path(3, 5, [&grid](int seg) {
    const auto [a, b] = grid.segment_ends(seg);
    const bool middle_row = (a == 3 && b == 4) || (a == 4 && b == 5);
    return middle_row ? 100.0 : 1.0;
  });
  ASSERT_FALSE(detour.empty());
  EXPECT_EQ(detour.front(), 3);
  EXPECT_EQ(detour.back(), 5);
  EXPECT_EQ(detour.size(), 5u);  // 4 cheap hops beat 2 expensive ones
}

TEST(RoadGraph, SameSourceAndTarget) {
  RoadGraph g{3, 3, 100.0};
  const auto path = g.shortest_path(4, 4, [](int) { return 1.0; });
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 4);
}

TEST(RoadGraph, GeneralGraphBuild) {
  // A triangle with one spur — impossible to express as a lattice.
  RoadGraph g;
  const int a = g.add_intersection({0.0, 0.0});
  const int b = g.add_intersection({300.0, 0.0});
  const int c = g.add_intersection({150.0, 200.0});
  const int d = g.add_intersection({450.0, 50.0});
  const int ab = g.add_segment(a, b);
  g.add_segment(b, c);
  g.add_segment(c, a);
  g.add_segment(b, d);
  EXPECT_FALSE(g.is_grid());
  EXPECT_EQ(g.intersection_count(), 4);
  EXPECT_EQ(g.segment_count(), 4u);
  EXPECT_DOUBLE_EQ(g.segment_length(ab), 300.0);
  EXPECT_DOUBLE_EQ(g.segment_length(g.segment_between(a, c)),
                   std::hypot(150.0, 200.0));
  EXPECT_EQ(g.degree(b), 3);
  EXPECT_EQ(sorted_neighbors(g, b), (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(g.nearest_intersection({440.0, 60.0}), d);
  EXPECT_EQ(g.bbox_max(), (core::Vec2{450.0, 200.0}));

  // Length-shortest path a -> d goes through b directly.
  EXPECT_EQ(g.shortest_path_by_length(a, d), (std::vector<int>{a, b, d}));
}

TEST(RoadGraph, ShortestPathByLengthPrefersShortDetour) {
  // 0 --1000m-- 1, plus a 2-leg detour 0 -300m- 2 -300m- 1.
  RoadGraph g;
  g.add_intersection({0.0, 0.0});
  g.add_intersection({1000.0, 0.0});
  g.add_intersection({0.0, 300.0});
  g.add_segment(0, 1);
  g.add_segment(0, 2);
  g.add_segment(2, 1);  // hypot(1000,300) ~ 1044: direct still wins
  EXPECT_EQ(g.shortest_path_by_length(0, 1), (std::vector<int>{0, 1}));
  // Uniform per-segment cost prefers fewer hops too; but when the direct
  // road is penalised, the detour wins by length.
  const auto detour = g.shortest_path(
      0, 1, [&g](int seg) { return seg == 0 ? 1e6 : g.segment_length(seg); });
  EXPECT_EQ(detour, (std::vector<int>{0, 2, 1}));
}

// The exactness contract of map/segment_index.h: nearest_segment must agree
// with the brute-force scan — including the lowest-id tie-break — on both
// lattice and irregular graphs, for on-road, off-road and far-away points.
TEST(RoadGraph, SegmentIndexMatchesLinearScan) {
  core::Rng rng{2024};
  {
    RoadGraph g{6, 4, 150.0};
    SegmentIndex index{g};
    for (int i = 0; i < 2000; ++i) {
      // Include exact lattice multiples: distance ties are the hard case.
      const double x = rng.bernoulli(0.3)
                           ? 150.0 * rng.uniform_int(-1, 6)
                           : rng.uniform(-300.0, 1100.0);
      const double y = rng.bernoulli(0.3)
                           ? 150.0 * rng.uniform_int(-1, 4)
                           : rng.uniform(-300.0, 800.0);
      EXPECT_EQ(index.nearest_segment({x, y}), g.segment_of_position({x, y}))
          << "at (" << x << ", " << y << ")";
    }
  }
  {
    // Random irregular graph.
    RoadGraph g;
    for (int i = 0; i < 40; ++i) {
      g.add_intersection({rng.uniform(0.0, 2000.0), rng.uniform(0.0, 1500.0)});
    }
    for (int i = 1; i < 40; ++i) {
      g.add_segment(i, static_cast<int>(rng.uniform_int(0, i - 1)));
    }
    for (int extra = 0; extra < 30; ++extra) {
      const int a = static_cast<int>(rng.uniform_int(0, 39));
      const int b = static_cast<int>(rng.uniform_int(0, 39));
      if (a != b && g.segment_between(a, b) == -1) g.add_segment(a, b);
    }
    SegmentIndex index{g};
    for (int i = 0; i < 2000; ++i) {
      const core::Vec2 p{rng.uniform(-500.0, 2500.0),
                         rng.uniform(-500.0, 2000.0)};
      EXPECT_EQ(index.nearest_segment(p), g.segment_of_position(p))
          << "at (" << p.x << ", " << p.y << ")";
    }
  }
}

TEST(DensityOracle, SetAndGet) {
  SegmentDensityOracle o{5};
  EXPECT_DOUBLE_EQ(o.count(3), 0.0);
  o.set_count(3, 12.0);
  EXPECT_DOUBLE_EQ(o.count(3), 12.0);
}

}  // namespace
}  // namespace vanet::map

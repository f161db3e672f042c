#include "core/spatial_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/rng.h"

namespace vanet::core {
namespace {

TEST(SpatialGrid, InsertQueryRemove) {
  SpatialGrid g{100.0};
  g.insert(1, {0.0, 0.0});
  g.insert(2, {50.0, 0.0});
  g.insert(3, {500.0, 0.0});
  EXPECT_EQ(g.size(), 3u);
  EXPECT_TRUE(g.contains(2));
  EXPECT_EQ(g.query_radius({0.0, 0.0}, 100.0), (std::vector<SpatialGrid::Id>{1, 2}));
  g.remove(2);
  EXPECT_EQ(g.query_radius({0.0, 0.0}, 100.0), (std::vector<SpatialGrid::Id>{1}));
  EXPECT_FALSE(g.contains(2));
}

TEST(SpatialGrid, QueryExcludesSelf) {
  SpatialGrid g{100.0};
  g.insert(7, {0.0, 0.0});
  g.insert(8, {10.0, 0.0});
  EXPECT_EQ(g.query_radius({0.0, 0.0}, 50.0, 7),
            (std::vector<SpatialGrid::Id>{8}));
}

TEST(SpatialGrid, RadiusIsStrict) {
  SpatialGrid g{100.0};
  g.insert(1, {0.0, 0.0});
  g.insert(2, {100.0, 0.0});
  // Exactly at the radius: excluded (strict <).
  EXPECT_TRUE(g.query_radius({0.0, 0.0}, 100.0, 1).empty());
  EXPECT_EQ(g.query_radius({0.0, 0.0}, 100.01, 1).size(), 1u);
}

TEST(SpatialGrid, UpdateMovesAcrossCells) {
  SpatialGrid g{100.0};
  g.insert(1, {0.0, 0.0});
  g.update(1, {1000.0, 1000.0});
  EXPECT_TRUE(g.query_radius({0.0, 0.0}, 200.0).empty());
  EXPECT_EQ(g.query_radius({1000.0, 1000.0}, 10.0).size(), 1u);
  EXPECT_EQ(g.position(1), (Vec2{1000.0, 1000.0}));
}

TEST(SpatialGridDeathTest, DuplicateInsertAborts) {
  SpatialGrid g{100.0};
  g.insert(1, {0.0, 0.0});
  EXPECT_DEATH(g.insert(1, {5.0, 5.0}), "duplicate insert");
}

TEST(SpatialGridDeathTest, RemoveUnknownAborts) {
  SpatialGrid g{100.0};
  EXPECT_DEATH(g.remove(9), "unknown id");
}

TEST(SpatialGrid, NegativeCoordinates) {
  SpatialGrid g{50.0};
  g.insert(1, {-120.0, -80.0});
  g.insert(2, {-110.0, -85.0});
  EXPECT_EQ(g.query_radius({-115.0, -82.0}, 20.0).size(), 2u);
}

// Property: grid query matches brute force, in exact id order, for random
// point clouds under churn (insert/update/remove), across cell sizes and
// query radii. The grid is sized to a box that holds only part of the cloud:
// points far outside it and negative coordinates must stay exact.
class SpatialGridProperty
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(SpatialGridProperty, MatchesBruteForce) {
  const auto [cell, radius, n] = GetParam();
  SpatialGrid g{cell, Box{{-500.0, -800.0}, {1200.0, 600.0}}};
  Rng rng{static_cast<std::uint64_t>(n) * 7919 + 13};
  // One in eight points lands far outside the sized box.
  auto random_pos = [&rng] {
    const double lim = rng.uniform(0.0, 1.0) < 0.125 ? 20000.0 : 2000.0;
    return Vec2{rng.uniform(-lim, lim), rng.uniform(-lim, lim)};
  };
  std::vector<bool> present(static_cast<std::size_t>(n), false);
  std::vector<Vec2> pts(static_cast<std::size_t>(n));
  auto check = [&](Vec2 c, SpatialGrid::Id exclude) {
    std::vector<SpatialGrid::Id> expected;
    for (int i = 0; i < n; ++i) {
      const auto id = static_cast<SpatialGrid::Id>(i);
      if (present[id] && id != exclude &&
          (pts[id] - c).norm_sq() < radius * radius) {
        expected.push_back(id);
      }
    }
    std::vector<SpatialGrid::Id> got{999999};  // stale contents are replaced
    g.query_radius_into(c, radius, exclude, got);
    EXPECT_EQ(got, expected);
  };
  for (int i = 0; i < n; ++i) {
    pts[static_cast<std::size_t>(i)] = random_pos();
    present[static_cast<std::size_t>(i)] = true;
    g.insert(static_cast<SpatialGrid::Id>(i), pts[static_cast<std::size_t>(i)]);
  }
  for (int round = 0; round < 20; ++round) {
    // Churn: a batch of random inserts, moves (small steps and jumps) and
    // removals, then probes.
    for (int op = 0; op < n / 2 + 1; ++op) {
      const auto id = static_cast<SpatialGrid::Id>(rng.uniform_int(0, n - 1));
      if (!present[id]) {
        pts[id] = random_pos();
        g.insert(id, pts[id]);
        present[id] = true;
      } else if (rng.uniform(0.0, 1.0) < 0.2) {
        g.remove(id);
        present[id] = false;
      } else {
        pts[id] = rng.uniform(0.0, 1.0) < 0.5
                      ? pts[id] + Vec2{rng.uniform(-cell, cell),
                                       rng.uniform(-cell, cell)}
                      : random_pos();
        g.update(id, pts[id]);
      }
      ASSERT_EQ(g.contains(id), present[id]);
      if (present[id]) {
        ASSERT_EQ(g.position(id), pts[id]);
      }
    }
    EXPECT_EQ(g.size(), static_cast<std::size_t>(
                            std::count(present.begin(), present.end(), true)));
    for (int probe = 0; probe < 10; ++probe) {
      const auto near = static_cast<SpatialGrid::Id>(rng.uniform_int(0, n - 1));
      // Random centres, and centres on a (possibly far-out) point excluding
      // it, the way reception fan-out queries.
      check(random_pos(), SpatialGrid::kNoExclude);
      check(pts[near], near);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpatialGridProperty,
    ::testing::Combine(::testing::Values(25.0, 100.0, 400.0),
                       ::testing::Values(30.0, 150.0, 600.0),
                       ::testing::Values(10, 100, 400)));

TEST(SpatialGrid, FarOutsideTheBoxStaysExact) {
  SpatialGrid g{100.0, Box{{0.0, 0.0}, {1000.0, 1000.0}}};
  g.insert(1, {-1e12, 5.0});
  g.insert(2, {-1e12 + 50.0, 5.0});
  g.insert(3, {1e300, -1e300});
  g.insert(4, {500.0, 500.0});
  EXPECT_EQ(g.query_radius({-1e12, 0.0}, 60.0),
            (std::vector<SpatialGrid::Id>{1, 2}));
  EXPECT_EQ(g.query_radius({1e300, -1e300}, 1.0),
            (std::vector<SpatialGrid::Id>{3}));
  EXPECT_EQ(g.query_radius({500.0, 500.0}, 1e6),
            (std::vector<SpatialGrid::Id>{4}));
  g.update(1, {500.0, 550.0});
  EXPECT_EQ(g.query_radius({500.0, 500.0}, 100.0),
            (std::vector<SpatialGrid::Id>{1, 4}));
}

}  // namespace
}  // namespace vanet::core

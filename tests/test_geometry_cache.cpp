// The geometry-cache layer (docs/ARCHITECTURE.md "Scenario-owned caches"):
// the per-tick segment snapshot and the corridor pre-reject are pure caches
// — every test here pins either the bit-identity contract (cached answer ==
// uncached answer) or the counter semantics bench_compare.py watches. The
// scenario-level proof is the golden town-gvgrid-route row.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "map/road_graph.h"
#include "map/route_corridor.h"
#include "map/segment_index.h"
#include "map/segment_snapshot.h"
#include "sim/scenario.h"

#ifndef VANET_SOURCE_DIR
#error "VANET_SOURCE_DIR must point at the repository root"
#endif

namespace vanet {
namespace {

// ---- SegmentSnapshot --------------------------------------------------------

map::RoadGraph l_graph() {
  map::RoadGraph g;
  g.add_intersection({0.0, 0.0});
  g.add_intersection({0.0, 1000.0});
  g.add_intersection({1000.0, 1000.0});
  g.add_segment(0, 1);
  g.add_segment(1, 2);
  return g;
}

TEST(SegmentSnapshot, MatchesIndexAndCachesByPositionBits) {
  const map::RoadGraph g = l_graph();
  const map::SegmentIndex idx{g};
  map::SegmentSnapshot snap{idx};
  std::mt19937 gen{11};
  std::uniform_real_distribution<double> coord{-50.0, 1050.0};
  for (std::uint32_t id = 0; id < 20; ++id) {
    const core::Vec2 pos{coord(gen), coord(gen)};
    const int direct = idx.nearest_segment(pos);
    EXPECT_EQ(snap.segment_of(id, pos), direct);
    EXPECT_EQ(snap.segment_of(id, pos), direct);  // second call: cache hit
  }
  EXPECT_EQ(snap.stats().queries, 40u);
  EXPECT_EQ(snap.stats().hits, 20u);
  EXPECT_EQ(snap.stats().index_queries, 20u);
  EXPECT_EQ(snap.stats().proven, 0u);
}

TEST(SegmentSnapshot, PositionChangeInvalidatesAndProverIsTrusted) {
  const map::RoadGraph g = l_graph();
  const map::SegmentIndex idx{g};
  map::SegmentSnapshot snap{idx};
  const core::Vec2 a{10.0, 500.0};   // on the west leg (segment 0)
  const core::Vec2 b{500.0, 990.0};  // on the north leg (segment 1)
  EXPECT_EQ(snap.segment_of(3, a), idx.nearest_segment(a));
  EXPECT_EQ(snap.segment_of(3, b), idx.nearest_segment(b));  // moved: re-query
  EXPECT_EQ(snap.stats().index_queries, 2u);
  EXPECT_EQ(snap.stats().hits, 0u);

  // A prover that answers is trusted verbatim; one that declines (negative)
  // falls through to the index.
  map::SegmentSnapshot proved{idx};
  proved.set_prover([&](std::uint32_t node, core::Vec2 pos) {
    return node == 1 ? idx.nearest_segment(pos) : -1;
  });
  EXPECT_EQ(proved.segment_of(1, a), idx.nearest_segment(a));
  EXPECT_EQ(proved.segment_of(2, a), idx.nearest_segment(a));
  EXPECT_EQ(proved.stats().proven, 1u);
  EXPECT_EQ(proved.stats().index_queries, 1u);
}

// ---- RouteCorridor pre-reject ----------------------------------------------

TEST(RouteCorridor, ContainsMatchesExactDistanceEverywhere) {
  // contains() short-circuits through bounding boxes; the contract is that
  // the boolean answer is exactly distance_to(pos) <= half_width. Sweep
  // random query points with half-widths scaled so both outcomes are common
  // and boundary-grazing points occur.
  map::RoadGraph g = l_graph();
  g.add_intersection({1000.0, 0.0});
  g.add_segment(2, 3);
  const map::SegmentIndex idx{g};
  const core::Vec2 src{10.0, 20.0}, dst{990.0, 30.0};
  const map::RouteCorridor c = map::RouteCorridor::between(
      g, src, dst, idx.nearest_segment(src), idx.nearest_segment(dst));
  ASSERT_TRUE(c.route_found());
  std::mt19937 gen{23};
  std::uniform_real_distribution<double> coord{-300.0, 1300.0};
  std::uniform_real_distribution<double> scale{0.5, 1.5};
  for (int i = 0; i < 500; ++i) {
    const core::Vec2 p{coord(gen), coord(gen)};
    const double exact = c.distance_to(p);
    // Half-widths straddling the exact distance, plus the exact distance
    // itself (the inclusive boundary).
    for (const double hw : {exact * scale(gen), exact, 100.0, 600.0}) {
      EXPECT_EQ(c.contains(p, hw), exact <= hw)
          << "pos=(" << p.x << "," << p.y << ") hw=" << hw
          << " exact=" << exact;
    }
  }
}

// ---- Scenario-level counters ------------------------------------------------

sim::ScenarioConfig town_gvgrid_config() {
  sim::ScenarioConfig cfg;
  cfg.seed = 9;
  cfg.duration_s = 10.0;
  cfg.map.source = sim::MapSource::kFile;
  cfg.map.file = std::string{VANET_SOURCE_DIR} + "/maps/town.csv";
  cfg.mobility = sim::MobilityKind::kGraph;
  cfg.vehicles = 30;
  cfg.protocol = "gvgrid";
  cfg.geometry = sim::GeometryMode::kRoute;
  cfg.traffic.stop_s = 10.0;
  return cfg;
}

TEST(GeometryCache, SegmentSnapshotExportsCacheCounters) {
  sim::Scenario scenario{town_gvgrid_config()};
  scenario.run();
  const map::SegmentSnapshot::Stats& snap = scenario.segment_snapshot().stats();
  // Snapshot: every query is a hit, a prover answer or an index query.
  EXPECT_GT(snap.queries, 0u);
  EXPECT_EQ(snap.hits + snap.proven + snap.index_queries, snap.queries);
  // Graph mobility reports segments, so the prover should carry real weight;
  // the warm hit rate (hits plus prover answers, as bench_scenario_throughput
  // reports it) is what bench_compare.py regresses on.
  EXPECT_GT(static_cast<double>(snap.hits + snap.proven) /
                static_cast<double>(snap.queries),
            0.5);
}

}  // namespace
}  // namespace vanet

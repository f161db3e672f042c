// Edge-list CSV importer/exporter (map/builders.h): round-trip fidelity and
// loud rejection of every malformed-input class the header documents.
#include "map/builders.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace vanet::map {
namespace {

constexpr const char* kTriangleCsv =
    "# demo map\n"
    "node,0,0,0\n"
    "node,1,300,0\n"
    "node,2,150,260.5\n"
    "edge,0,1\n"
    "edge,1,2\n"
    "edge,2,0\n";

TEST(MapIo, LoadsEdgeListCsv) {
  std::istringstream in{kTriangleCsv};
  const RoadGraph g = load_edge_list_csv(in);
  EXPECT_EQ(g.intersection_count(), 3);
  EXPECT_EQ(g.segment_count(), 3u);
  EXPECT_FALSE(g.is_grid());
  EXPECT_EQ(g.intersection_pos(2), (core::Vec2{150.0, 260.5}));
  // Segment ids follow edge-record order.
  EXPECT_EQ(g.segment_ends(0), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(g.segment_ends(1), (std::pair<int, int>{1, 2}));
  EXPECT_DOUBLE_EQ(g.segment_length(0), 300.0);
}

TEST(MapIo, CrlfLineEndingsAccepted) {
  // Windows-saved CSVs must parse identically (trailing \r stripped).
  std::istringstream in{
      "# comment\r\nnode,0,0,0\r\nnode,1,120,50\r\nedge,0,1\r\n"};
  const RoadGraph g = load_edge_list_csv(in);
  EXPECT_EQ(g.intersection_count(), 2);
  EXPECT_EQ(g.intersection_pos(1), (core::Vec2{120.0, 50.0}));
}

TEST(MapIo, RecordsInAnyOrderAndCommentsSkipped) {
  std::istringstream in{
      "edge,1,0\n"
      "# late nodes are fine — the file is validated as a whole\n"
      "\n"
      "node,1,100,0\n"
      "node,0,0,0\n"};
  const RoadGraph g = load_edge_list_csv(in);
  EXPECT_EQ(g.intersection_count(), 2);
  EXPECT_EQ(g.segment_count(), 1u);
}

TEST(MapIo, CsvRoundTrip) {
  std::istringstream in{kTriangleCsv};
  const RoadGraph g = load_edge_list_csv(in);
  std::ostringstream out;
  save_edge_list_csv(g, out);
  std::istringstream in2{out.str()};
  const RoadGraph g2 = load_edge_list_csv(in2);
  ASSERT_EQ(g2.intersection_count(), g.intersection_count());
  ASSERT_EQ(g2.segment_count(), g.segment_count());
  for (int i = 0; i < g.intersection_count(); ++i) {
    EXPECT_EQ(g2.intersection_pos(i), g.intersection_pos(i)) << i;
  }
  for (std::size_t s = 0; s < g.segment_count(); ++s) {
    EXPECT_EQ(g2.segment_ends(static_cast<int>(s)),
              g.segment_ends(static_cast<int>(s)));
    EXPECT_DOUBLE_EQ(g2.segment_length(static_cast<int>(s)),
                     g.segment_length(static_cast<int>(s)));
  }
}

TEST(MapIo, GridSurvivesCsvRoundTrip) {
  // Exporting a generated lattice and re-importing keeps geometry and ids
  // (the reload is a general graph — lattice metadata is not serialized).
  const RoadGraph g{4, 3, 120.0};
  std::ostringstream out;
  save_edge_list_csv(g, out);
  std::istringstream in{out.str()};
  const RoadGraph g2 = load_edge_list_csv(in);
  EXPECT_FALSE(g2.is_grid());
  ASSERT_EQ(g2.intersection_count(), g.intersection_count());
  ASSERT_EQ(g2.segment_count(), g.segment_count());
  for (int i = 0; i < g.intersection_count(); ++i) {
    EXPECT_EQ(g2.intersection_pos(i), g.intersection_pos(i)) << i;
  }
  for (std::size_t s = 0; s < g.segment_count(); ++s) {
    EXPECT_EQ(g2.segment_ends(static_cast<int>(s)),
              g.segment_ends(static_cast<int>(s)));
  }
}

TEST(MapIo, FileRoundTrip) {
  const RoadGraph g{3, 3, 100.0};
  const std::string path = ::testing::TempDir() + "vanet_map_io_test.csv";
  save_edge_list_csv_file(g, path);
  const RoadGraph g2 = load_edge_list_csv_file(path);
  EXPECT_EQ(g2.intersection_count(), g.intersection_count());
  EXPECT_EQ(g2.segment_count(), g.segment_count());
  std::remove(path.c_str());
  EXPECT_THROW(load_edge_list_csv_file(path), std::runtime_error);
}

void expect_rejected(const std::string& csv, const std::string& why_contains) {
  std::istringstream in{csv};
  try {
    load_edge_list_csv(in);
    FAIL() << "expected rejection (" << why_contains << ") of:\n" << csv;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(why_contains), std::string::npos)
        << e.what();
  }
}

TEST(MapIo, MalformedInputRejected) {
  expect_rejected("node,0,0,0\nnode,1,1,1\nedge,0,1\nbogus,1,2\n",
                  "unknown record");
  expect_rejected("node,0,0\n", "node needs id,x,y");
  expect_rejected("node,x,0,0\n", "bad node id");
  expect_rejected("node,0,zero,0\n", "bad node coordinates");
  expect_rejected("node,0,0,1x\nnode,1,1,1\nedge,0,1\n", "line 1");
  expect_rejected("node,0,0,0\nnode,1,1,1\nedge,0,1.5\n", "line 3");
  expect_rejected("node,0,0,0\nnode,0,1,1\nedge,0,0\n", "duplicate node id");
  expect_rejected("node,0,0,0\nnode,1,1,1\nedge,0\n", "edge needs a,b");
  expect_rejected("node,0,0,0\nnode,1,1,1\nedge,0,q\n", "bad edge endpoint");
  // Absurd ids must fail with a line number, not attempt a huge resize or
  // wrap in the narrowing to int.
  expect_rejected("node,8000000000,0,0\n", "bad node id");
  expect_rejected("node,0,0,0\nnode,1,1,1\nedge,0,4294967296\n",
                  "bad edge endpoint");
  // Non-finite coordinates would poison lengths/bbox/index cells.
  expect_rejected("node,0,nan,0\nnode,1,1,1\nedge,0,1\n",
                  "bad node coordinates");
  expect_rejected("node,0,0,inf\nnode,1,1,1\nedge,0,1\n",
                  "bad node coordinates");
  expect_rejected("node,0,0,0\nnode,1,1,1\nedge,1,1\n", "self-loop");
  expect_rejected("node,0,0,0\nnode,1,1,1\nedge,0,1\nedge,1,0\n",
                  "duplicate edge");
  expect_rejected("node,0,0,0\nnode,1,1,1\nedge,0,2\n", "out of range");
  expect_rejected("node,0,0,0\nnode,2,1,1\nedge,0,2\n", "dense 0..N-1");
  expect_rejected("node,0,0,0\n", "at least two nodes");
  expect_rejected("", "at least two nodes");
  expect_rejected("node,0,0,0\nnode,1,1,1\nnode,2,5,5\nedge,0,1\n",
                  "has no edges");
  expect_rejected("node,0,3,4\nnode,1,3,4\nedge,0,1\n", "zero-length");
}

// Diagnostics must name the offending 1-based source line — blank lines and
// comments count, so the number matches what an editor shows.
TEST(MapIo, MalformedInputNamesTheLine) {
  expect_rejected("node,0,0,0\nnode,1,1,1\nedge,0,1\nbogus,1,2\n", "line 4:");
  expect_rejected("# header comment\n\nnode,0,0\n", "line 3:");
  expect_rejected("node,0,0,0\nnode,1,1,1\nedge,0,q\n", "line 3:");
  expect_rejected("node,0,0,0\nnode,0,1,1\n", "line 2:");
  expect_rejected("node,8000000000,0,0\n", "line 1:");
}

}  // namespace
}  // namespace vanet::map

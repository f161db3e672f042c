// RoadGraph edge-list CSV import/export.
//
// The CSV schema is a plain edge list with explicit node positions:
//
//   # comment and blank lines are skipped
//   node,<id>,<x_m>,<y_m>
//   edge,<node_a>,<node_b>
//
// Node ids must be the dense range 0..N-1, each declared exactly once;
// records may appear in any order (the file is validated as a whole).
// Edges join two distinct declared nodes and may not repeat. Every
// node must have at least one edge — GraphMobility has no way to leave an
// isolated intersection. Segment ids are assigned in edge-record order and
// segment lengths are the Euclidean node distances, so a file loads to a
// bit-identical graph on every platform. load/save round-trip exactly
// (MapIo.CsvRoundTrip).
#pragma once

#include <iosfwd>
#include <string>

#include "map/road_graph.h"

namespace vanet::map {

/// Parse the edge-list CSV schema above. Throws std::runtime_error naming the
/// offending line for malformed records, non-dense/duplicate node ids,
/// unknown or repeated edges, self-loops, isolated nodes, or a graph with
/// fewer than two intersections.
RoadGraph load_edge_list_csv(std::istream& in);
RoadGraph load_edge_list_csv_file(const std::string& path);

/// Write `graph` in the same schema (nodes ascending, then edges in segment
/// order). load(save(g)) reproduces g exactly.
void save_edge_list_csv(const RoadGraph& graph, std::ostream& out);
void save_edge_list_csv_file(const RoadGraph& graph, const std::string& path);

}  // namespace vanet::map

#include "map/builders.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/parse.h"

namespace vanet::map {

namespace {

[[noreturn]] void malformed(std::size_t line_no, const std::string& line,
                            const std::string& why) {
  throw std::runtime_error("map csv: line " + std::to_string(line_no) + ": " +
                           why + ": " + line);
}

/// Ids above this are rejected rather than resized-to: a typo'd id must fail
/// with a line number, not an out-of-memory, and must survive the narrowing
/// to int unchanged. Generous for road networks (planet-scale OSM extracts
/// are pre-tiled long before this) while keeping the worst-case transient
/// node table small.
constexpr long long kMaxNodeId = 1'000'000;

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss{line};
  std::string field;
  while (std::getline(ss, field, ',')) out.push_back(field);
  return out;
}


}  // namespace

RoadGraph load_edge_list_csv(std::istream& in) {
  struct NodeRec {
    core::Vec2 pos;
    bool declared = false;
  };
  std::vector<NodeRec> nodes;
  std::vector<std::pair<int, int>> edges;
  std::vector<std::size_t> edge_lines;  // for isolated/duplicate diagnostics

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF files
    if (line.empty() || line[0] == '#') continue;
    const auto fields = split_fields(line);
    if (fields.empty()) continue;
    if (fields[0] == "node") {
      if (fields.size() != 4) malformed(line_no, line, "node needs id,x,y");
      const auto id = core::parse_int_checked(fields[1]);
      // 'nan'/'inf' would poison every downstream geometry computation
      // (segment lengths, bbox, index cells): the parser refuses them, so
      // they get the same line-numbered error as any other malformed field.
      const auto x = core::parse_double_checked(fields[2]);
      const auto y = core::parse_double_checked(fields[3]);
      if (!id || *id < 0 || *id > kMaxNodeId) {
        malformed(line_no, line, "bad node id");
      }
      if (!x || !y) malformed(line_no, line, "bad node coordinates");
      if (static_cast<std::size_t>(*id) >= nodes.size()) {
        nodes.resize(static_cast<std::size_t>(*id) + 1);
      }
      NodeRec& rec = nodes[static_cast<std::size_t>(*id)];
      if (rec.declared) malformed(line_no, line, "duplicate node id");
      rec.pos = {*x, *y};
      rec.declared = true;
    } else if (fields[0] == "edge") {
      if (fields.size() != 3) malformed(line_no, line, "edge needs a,b");
      const auto a = core::parse_int_checked(fields[1]);
      const auto b = core::parse_int_checked(fields[2]);
      if (!a || !b || *a < 0 || *b < 0 || *a > kMaxNodeId ||
          *b > kMaxNodeId) {
        malformed(line_no, line, "bad edge endpoint");
      }
      if (*a == *b) malformed(line_no, line, "self-loop edge");
      edges.emplace_back(static_cast<int>(*a), static_cast<int>(*b));
      edge_lines.push_back(line_no);
    } else {
      malformed(line_no, line, "unknown record type '" + fields[0] + "'");
    }
  }

  if (nodes.size() < 2) {
    throw std::runtime_error("map csv: needs at least two nodes");
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].declared) {
      throw std::runtime_error("map csv: node ids must be dense 0..N-1 (id " +
                               std::to_string(i) + " missing)");
    }
  }

  RoadGraph graph;
  for (const NodeRec& rec : nodes) graph.add_intersection(rec.pos);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, b] = edges[e];
    if (a >= graph.intersection_count() || b >= graph.intersection_count()) {
      throw std::runtime_error("map csv: line " +
                               std::to_string(edge_lines[e]) +
                               ": edge endpoint out of range");
    }
    if (graph.segment_between(a, b) != -1) {
      throw std::runtime_error("map csv: line " +
                               std::to_string(edge_lines[e]) +
                               ": duplicate edge " + std::to_string(a) + "-" +
                               std::to_string(b));
    }
    if (graph.intersection_pos(a) == graph.intersection_pos(b)) {
      throw std::runtime_error("map csv: line " +
                               std::to_string(edge_lines[e]) +
                               ": zero-length edge " + std::to_string(a) +
                               "-" + std::to_string(b));
    }
    graph.add_segment(a, b);
  }
  for (int i = 0; i < graph.intersection_count(); ++i) {
    if (graph.degree(i) == 0) {
      throw std::runtime_error("map csv: node " + std::to_string(i) +
                               " has no edges (vehicles could never leave it)");
    }
  }
  return graph;
}

RoadGraph load_edge_list_csv_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("map csv: cannot open " + path);
  return load_edge_list_csv(in);
}

void save_edge_list_csv(const RoadGraph& graph, std::ostream& out) {
  out << "# node,<id>,<x_m>,<y_m> / edge,<node_a>,<node_b>\n";
  // 17 significant digits reload doubles bit-exactly; restore the caller's
  // precision afterwards.
  const std::streamsize old_precision = out.precision(17);
  for (int i = 0; i < graph.intersection_count(); ++i) {
    const core::Vec2 p = graph.intersection_pos(i);
    out << "node," << i << ',' << p.x << ',' << p.y << '\n';
  }
  for (std::size_t s = 0; s < graph.segment_count(); ++s) {
    const auto [a, b] = graph.segment_ends(static_cast<int>(s));
    out << "edge," << a << ',' << b << '\n';
  }
  out.precision(old_precision);
}

void save_edge_list_csv_file(const RoadGraph& graph, const std::string& path) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("map csv: cannot write " + path);
  save_edge_list_csv(graph, out);
}

}  // namespace vanet::map

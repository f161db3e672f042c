#include "routing/probability/car.h"

#include <algorithm>
#include <cmath>

#include "analysis/connectivity_prob.h"
#include "core/assert.h"

namespace vanet::routing {

double CarProtocol::segment_connectivity(int seg) const {
  const double length = road_map().segment_length(seg);
  const double lambda = density().count(seg) / length;
  return analysis::segment_connectivity_probability(lambda, length,
                                                    network().nominal_range());
}

bool CarProtocol::originate(net::NodeId dst, std::uint32_t flow,
                            std::uint32_t seq, std::size_t bytes) {
  const int from = road_map().nearest_intersection(network().position(self()));
  const int to = road_map().nearest_intersection(destination_position(dst));
  // Edge cost: -log of connectivity probability, so the shortest path
  // maximises the product of segment probabilities.
  const auto anchors = road_map().shortest_path(from, to, [this](int seg) {
    const double p = std::clamp(segment_connectivity(seg), 1e-6, 1.0);
    return -std::log(p);
  });

  auto h = std::make_shared<CarHeader>();
  h->anchors = anchors;
  h->next_anchor = 0;

  net::Packet p = make_data(dst, flow, seq, bytes);
  p.ttl = kGeoTtl;
  p.header = std::move(h);
  forward_geo(std::move(p));
  return true;
}

net::Packet CarProtocol::advance_anchor(net::Packet p) const {
  const auto* h = p.header_as<CarHeader>();
  if (h == nullptr || h->anchors.empty()) return p;
  const core::Vec2 here = network().position(self());
  const double reach =
      network().nominal_range() * kAnchorReachedRadiusFraction;
  std::size_t next = h->next_anchor;
  while (next < h->anchors.size() &&
         (road_map().intersection_pos(h->anchors[next]) - here).norm() <=
             reach) {
    ++next;
  }
  if (next != h->next_anchor) {
    auto updated = std::make_shared<CarHeader>(*h);
    updated->next_anchor = next;
    p.header = std::move(updated);
  }
  return p;
}

core::Vec2 CarProtocol::forward_target(const net::Packet& p) const {
  const auto* h = p.header_as<CarHeader>();
  if (h != nullptr && h->next_anchor < h->anchors.size()) {
    return road_map().intersection_pos(h->anchors[h->next_anchor]);
  }
  return destination_position(p.destination);
}

void CarProtocol::forward_geo(net::Packet p) {
  GeoUnicastBase::forward_geo(advance_anchor(std::move(p)));
}

double CarProtocol::score_candidate(const net::NeighborInfo& cand,
                                    double progress, double distance) const {
  (void)cand;
  (void)distance;
  return progress;  // progress toward the current anchor
}

}  // namespace vanet::routing

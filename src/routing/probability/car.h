// CAR — connectivity-aware routing (Yang et al. [29], Sec. VII-B).
//
// Every road segment is scored with the probability that the vehicles on it
// form a connected chain (gap model of analysis/connectivity_prob.h, grid
// cells of one car length). The source computes an *anchor path* over the
// road graph that maximises the product of segment connectivity
// probabilities, embeds the anchor list in the packet, and packets are then
// greedily forwarded anchor-to-anchor.
#pragma once

#include <vector>

#include "map/road_graph.h"
#include "routing/geographic/geo_base.h"

namespace vanet::routing {

struct CarHeader final : net::Header {
  static constexpr net::HeaderTag kTag = net::HeaderTag::kCar;
  CarHeader() : net::Header{kTag} {}
  std::vector<int> anchors;      ///< intersection indices, source -> dest
  std::size_t next_anchor = 0;   ///< first anchor not yet reached
};

class CarProtocol final : public GeoUnicastBase {
 public:
  bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                 std::size_t bytes) override;

  std::string_view name() const override { return "car"; }
  Category category() const override { return Category::kProbability; }

  /// Analytic connectivity probability of one segment given the oracle's
  /// current density estimate (exposed for tests/benches).
  double segment_connectivity(int seg) const;

 protected:
  double score_candidate(const net::NeighborInfo& cand, double progress,
                         double distance) const override;
  core::Vec2 forward_target(const net::Packet& p) const override;
  void forward_geo(net::Packet p) override;

 private:
  /// Advance `next_anchor` past anchors this node already reached.
  net::Packet advance_anchor(net::Packet p) const;

  static constexpr double kAnchorReachedRadiusFraction = 0.6;
};

}  // namespace vanet::routing

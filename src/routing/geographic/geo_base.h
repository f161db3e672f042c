// Shared engine for position-based unicast forwarding (Sec. VI-A).
//
// Geographic protocols pick the next hop from the hello-built neighbor table
// using the positions of the neighbors and of the destination; no discovery
// phase exists. Subclasses provide the candidate scoring; the base supplies
// candidate filtering (positive progress), per-neighbor blacklisting after
// MAC failures, and the fallback hook used by the infrastructure protocols
// (hand-off to RSU / ferry / local buffering).
//
// Destination positions come from an ideal location service (the standard
// assumption of this protocol family; see DESIGN.md substitutions).
#pragma once

#include <unordered_map>

#include "routing/protocol.h"

namespace vanet::routing {

class GeoUnicastBase : public RoutingProtocol {
 public:
  bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                 std::size_t bytes) override;
  void handle_frame(const net::Packet& p) override;
  void handle_unicast_failure(const net::Packet& p) override;
  bool wants_hello() const override { return true; }

 protected:
  /// Score a forwarding candidate; larger is better. `progress` is the
  /// reduction in distance-to-destination (always > min_progress()),
  /// `distance` the current distance from this node to the candidate.
  virtual double score_candidate(const net::NeighborInfo& cand, double progress,
                                 double distance) const = 0;

  /// Called when no usable candidate exists. Default: count + drop.
  virtual void no_candidate(net::Packet p);

  virtual double min_progress() const { return 1.0; }

  /// Where greedy progress is measured toward. Defaults to the destination's
  /// position; CAR points it at the next anchor of its connectivity path.
  virtual core::Vec2 forward_target(const net::Packet& p) const {
    return destination_position(p.destination);
  }

  /// Ideal location service.
  core::Vec2 destination_position(net::NodeId dst) const {
    return network().position(dst);
  }

  /// Greedy-forward `p`; falls back to no_candidate() when stuck.
  /// Virtual so infrastructure protocols can divert the forwarding path
  /// (e.g. RSU backbone relaying).
  virtual void forward_geo(net::Packet p);
  /// True when a candidate was found and the packet was sent.
  bool try_forward(net::Packet& p);

  void blacklist(net::NodeId id);
  bool blacklisted(net::NodeId id) const;

  static constexpr double kBlacklistSeconds = 2.0;
  static constexpr int kGeoTtl = 64;

 private:
  std::unordered_map<net::NodeId, core::SimTime> blacklist_;
};

}  // namespace vanet::routing

#include "routing/geographic/rover.h"

namespace vanet::routing {

void RoverProtocol::forward_rreq(const net::Packet& p, const RreqHeader& h) {
  // Zone membership: this node lies within the corridor from the request
  // origin to the destination's position (ideal location service, as in the
  // zone data protocols). Outside the zone the RREQ dies silently.
  const core::Vec2 here = network().position(self());
  const core::Vec2 target_pos = network().position(h.target);
  if (self() != h.rreq_origin &&
      core::distance_to_segment(here, h.origin_pos, target_pos) >
          kCorridorHalfWidth) {
    return;
  }
  OnDemandBase::forward_rreq(p, h);
}

}  // namespace vanet::routing

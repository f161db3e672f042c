// ROVER — robust vehicular routing (Kihl et al. [25], Sec. VI-B).
//
// "The protocol broadcasts control packets, similar to AODV, among zones to
// find a routing path. Once the routing path is found, data packets are
// unicasted along the single path." We implement it as AODV whose RREQ flood
// is confined to the geographic zone (corridor) between the source and the
// destination — the control-plane analogue of zone data flooding.
#pragma once

#include "routing/on_demand.h"

namespace vanet::routing {

class RoverProtocol final : public OnDemandBase {
 public:
  std::string_view name() const override { return "rover"; }
  Category category() const override { return Category::kGeographic; }

 protected:
  void forward_rreq(const net::Packet& p, const RreqHeader& h) override;

 private:
  static constexpr double kCorridorHalfWidth = 400.0;  ///< m
};

}  // namespace vanet::routing

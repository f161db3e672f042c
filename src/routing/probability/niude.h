// NiuDe / DeReQ (Niu et al. [16], Sec. IV-B & VII-B): QoS routing on link
// reliability and delay for multimedia traffic.
//
// "A new link reliability mathematical model which considers not only the
// impact of the link duration but also the traffic density. A selected route
// is not only reliable but also compliant with delay requirements." and
// "the route is maintained by proactive communication among intermediate
// nodes; if a link is going to break, the route will be rebuilt before the
// link breaks."
//
// Metric: per-link availability over a QoS horizon (Rubin/Jiang-style
// probability function) scaled by a local-density confidence factor; path
// selection maximises reliability among paths within the hop (delay) bound;
// maintenance is proactive (rebuild before predicted expiry).
#pragma once

#include "analysis/lifetime_distribution.h"
#include "routing/on_demand.h"

namespace vanet::routing {

class NiuDeProtocol final : public OnDemandBase {
 public:
  std::string_view name() const override { return "niude"; }
  Category category() const override { return Category::kProbability; }
  bool wants_hello() const override { return true; }

 protected:
  LinkEval evaluate_link(const RreqHeader& h) const override;
  bool path_better(const PathMetric& a, const PathMetric& b) const override;
  bool reply_immediately() const override { return false; }
  /// Proactive maintenance: rebuild well before the predicted break.
  double preemptive_rebuild_fraction() const override { return 0.6; }

 private:
  static constexpr double kQosHorizonS = 4.0;
  static constexpr int kDelayHopBound = 8;
  static constexpr double kSpeedSigma = 2.0;  ///< m/s, relative speed
  static constexpr double kHealthyNeighbors = 6.0;
};

}  // namespace vanet::routing

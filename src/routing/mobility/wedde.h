// Wedde et al. [15] (Sec. IV-B): rating-based routing.
//
// "The rating value is computed to evaluate the road conditions (actual
// traffic situation), based on the interdependencies of average vehicle
// speed, traffic density and the traffic quality (in terms of congestion).
// A routing link is incorporated into a routing path if the rating value
// satisfies a certain requirement, i.e. a threshold value."
//
// Each node rates its local road condition from the hello neighbor table:
// flowing traffic at healthy density rates high; congested (slow, dense) or
// deserted roads rate low. Links into poorly rated areas cost more and are
// rejected below the admission threshold.
#pragma once

#include "routing/on_demand.h"

namespace vanet::routing {

class WeddeProtocol final : public OnDemandBase {
 public:
  std::string_view name() const override { return "wedde"; }
  Category category() const override { return Category::kMobility; }
  bool wants_hello() const override { return true; }

  /// Local road-condition rating in [0, 1] (exposed for tests).
  double local_rating() const;

 protected:
  LinkEval evaluate_link(const RreqHeader& h) const override;
  bool path_better(const PathMetric& a, const PathMetric& b) const override;
  bool reply_immediately() const override { return false; }

 private:
  static constexpr double kAdmissionThreshold = 0.15;  ///< least rating
  static constexpr double kHealthySpeed = 20.0;    ///< m/s of flowing traffic
  static constexpr double kHealthyNeighbors = 4.0; ///< enough relays around
};

}  // namespace vanet::routing

// REAR — reliable and efficient alarm-message routing (Jiang et al. [30],
// Sec. VII-B).
//
// The next hop is chosen by *receipt probability*, computed from the wireless
// signal model (path loss + shadowing): "the receipt probabilities at all
// neighboring nodes are estimated from the received signal strengths; the
// path with highest receipt probability is selected". We evaluate the
// analytic probability of analysis/signal.h at the candidate's distance and
// combine it with forward progress.
#pragma once

#include "analysis/signal.h"
#include "routing/geographic/geo_base.h"

namespace vanet::routing {

class RearProtocol final : public GeoUnicastBase {
 public:
  explicit RearProtocol(analysis::LogNormalParams params)
      : params_{params} {}

  std::string_view name() const override { return "rear"; }
  Category category() const override { return Category::kProbability; }

 protected:
  double score_candidate(const net::NeighborInfo& cand, double progress,
                         double distance) const override;

 private:
  analysis::LogNormalParams params_;
};

}  // namespace vanet::routing

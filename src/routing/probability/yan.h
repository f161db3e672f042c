// Yan et al. [27] (Sec. VII-B): ticket-based probing on expected link
// duration.
//
// Instead of brute-force flooding, route discovery issues L tickets; every
// probe carries some tickets and each node forwards at most as many probe
// copies as it holds tickets, unicasting them to the neighbors with the
// longest *expected link duration* (computed from the probability model of
// LinkLifetimeDistribution). The destination answers the most stable probe.
// TBP-SS (stability-constrained) uses the mean link duration as the metric
// with a minimum-stability admission threshold.
#pragma once

#include <algorithm>
#include <vector>

#include "analysis/lifetime_distribution.h"
#include "routing/on_demand.h"

namespace vanet::routing {

/// A neighbor a probe may be unicast to, with its expected link duration.
struct ProbeCandidate {
  net::NodeId id;
  double duration;
};

/// Yan's probe ranking over one node's neighbors: any range of
/// `net::NeighborInfo` whose elements stay put while it runs (a table's
/// snapshot, a vector). Rows with id `skip_a` or `skip_b` (the RREQ origin
/// and the hop it came from) never qualify.
/// Neighbors with `progress` > 1 m toward the target are the forward
/// candidates; each is scored with `score` and kept when its duration
/// exceeds 0.5 s. Only when none is kept are the other neighbors (a NaN
/// progress among them) scored and kept by the same rule: the probe steps
/// sideways. The result is best first (duration desc, then id asc).
///
/// `score` must be pure (no RNG draw, no state): a sideways neighbor is
/// scored only when the fallback is read, and a forward one only once.
template <typename Rows, typename Progress, typename Score>
std::vector<ProbeCandidate> rank_probe_candidates(
    const Rows& rows, net::NodeId skip_a, net::NodeId skip_b,
    Progress&& progress, Score&& score) {
  std::vector<ProbeCandidate> ranked;
  std::vector<const net::NeighborInfo*> sideways;
  for (const auto& nbr : rows) {
    if (nbr.id == skip_a || nbr.id == skip_b) continue;
    if (!(progress(nbr) > 1.0)) {
      sideways.push_back(&nbr);
      continue;
    }
    const double d = score(nbr);
    if (d <= 0.5) continue;
    ranked.push_back({nbr.id, d});
  }
  if (ranked.empty()) {
    for (const net::NeighborInfo* nbr : sideways) {
      const double d = score(*nbr);
      if (d <= 0.5) continue;
      ranked.push_back({nbr->id, d});
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ProbeCandidate& a, const ProbeCandidate& b) {
              if (a.duration != b.duration) return a.duration > b.duration;
              return a.id < b.id;
            });
  return ranked;
}

class YanProtocol : public OnDemandBase {
 public:
  explicit YanProtocol(int tickets) : tickets_{tickets} {}

  std::string_view name() const override { return "yan"; }
  Category category() const override { return Category::kProbability; }
  bool wants_hello() const override { return true; }

 protected:
  LinkEval evaluate_link(const RreqHeader& h) const override;
  bool path_better(const PathMetric& a, const PathMetric& b) const override;
  bool reply_immediately() const override { return false; }
  int initial_tickets() const override { return tickets_; }
  double preemptive_rebuild_fraction() const override { return 0.7; }
  void forward_rreq(const net::Packet& p, const RreqHeader& h) override;

  /// Expected lifetime of the link from this node to a neighbor, per the
  /// stochastic 1-D model (normal relative speed).
  double expected_link_duration(const net::NeighborInfo& nbr) const;

  static constexpr double kSpeedSigma = 2.0;
  static constexpr int kMaxFanout = 3;

 private:
  int tickets_;
};

/// TBP-SS: same probing machinery, but the routing metric is the mean link
/// duration ("stability") and links below a stability floor are rejected.
class YanStabilityProtocol final : public YanProtocol {
 public:
  explicit YanStabilityProtocol(int tickets) : YanProtocol(tickets) {}

  std::string_view name() const override { return "yan-ss"; }

 protected:
  LinkEval evaluate_link(const RreqHeader& h) const override;

 private:
  static constexpr double kMinStabilityS = 3.0;  ///< stability floor
};

}  // namespace vanet::routing

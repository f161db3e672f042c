#include "routing/probability/yan.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

namespace vanet::routing {

namespace {
/// Ranking horizon: "practically infinite" for route selection purposes.
constexpr double kDurationHorizon = 600.0;

/// Expected 1-D stochastic lifetime between two kinematic states, truncated
/// at the ranking horizon.
double expected_duration(core::Vec2 pos_a, core::Vec2 vel_a, core::Vec2 pos_b,
                         core::Vec2 vel_b, double r, double sigma) {
  const core::Vec2 axis = pos_b - pos_a;
  const double d0 = axis.norm();
  if (d0 >= r * 0.999 || d0 <= 0.0) return 0.0;
  const core::Vec2 unit = axis / d0;
  const double mu = (vel_b - vel_a).dot(unit);
  return analysis::LinkLifetimeDistribution{r, d0, mu, sigma}
      .expected_lifetime(kDurationHorizon);
}
}  // namespace

double YanProtocol::expected_link_duration(const net::NeighborInfo& nbr) const {
  return expected_duration(network().position(self()),
                           network().velocity(self()), nbr.predicted_pos(now()),
                           nbr.vel, network().nominal_range(), kSpeedSigma);
}

LinkEval YanProtocol::evaluate_link(const RreqHeader& h) const {
  LinkEval ev;
  ev.lifetime = expected_duration(
      h.prev_pos, h.prev_vel, network().position(self()),
      network().velocity(self()), network().nominal_range(), kSpeedSigma);
  ev.usable = ev.lifetime > 0.5;
  return ev;
}

bool YanProtocol::path_better(const PathMetric& a, const PathMetric& b) const {
  if (a.min_lifetime != b.min_lifetime) return a.min_lifetime > b.min_lifetime;
  return a.hops < b.hops;
}

void YanProtocol::forward_rreq(const net::Packet& p, const RreqHeader& h) {
  // Selective probing: rank neighbors by expected link duration and spend
  // tickets on the best few. Probes are steered toward the target — among
  // neighbors that make geographic progress the most stable ones win; only
  // when nobody progresses may a probe step sideways (local recovery).
  const core::Vec2 target_pos = network().position(h.target);
  const double my_dist = (target_pos - network().position(self())).norm();
  const std::vector<ProbeCandidate> candidates = rank_probe_candidates(
      neighbors().snapshot(), h.rreq_origin, p.tx,
      [&](const net::NeighborInfo& nbr) {
        return my_dist - (target_pos - nbr.predicted_pos(now())).norm();
      },
      [this](const net::NeighborInfo& nbr) {
        return expected_link_duration(nbr);
      });
  if (candidates.empty()) {
    // Sparse corner: fall back to a broadcast so discovery can still work.
    net::Packet copy = p;
    schedule(jitter(10.0), [this, copy]() mutable { broadcast(std::move(copy)); });
    return;
  }
  const int tickets = std::max(1, h.tickets);
  const int fanout =
      std::min({tickets, kMaxFanout, static_cast<int>(candidates.size())});
  const int share = std::max(1, tickets / fanout);
  for (int k = 0; k < fanout; ++k) {
    auto child = std::make_shared<RreqHeader>(h);
    child->tickets = share;
    net::Packet probe = p;
    probe.header = std::move(child);
    const net::NodeId to = candidates[static_cast<std::size_t>(k)].id;
    schedule(jitter(5.0), [this, to, probe]() mutable {
      unicast(to, std::move(probe));
    });
  }
}

LinkEval YanStabilityProtocol::evaluate_link(const RreqHeader& h) const {
  LinkEval ev = YanProtocol::evaluate_link(h);
  // Stability-constrained admission: reject links below the floor.
  if (ev.lifetime < kMinStabilityS) ev.usable = false;
  return ev;
}

}  // namespace vanet::routing

#include "analysis/link_lifetime.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/assert.h"

namespace vanet::analysis {

namespace {

/// Time at which the speed saturates (hits 0 or v_max); infinity if never.
double saturation_time(const Kinematics1D& k, double v_max) {
  if (k.a > 0.0) {
    if (k.v >= v_max) return 0.0;
    return (v_max - k.v) / k.a;
  }
  if (k.a < 0.0) {
    if (k.v <= 0.0) return 0.0;
    return -k.v / k.a;
  }
  return kInfiniteLifetime;
}

/// State after `t` seconds with saturation applied.
Kinematics1D state_at(const Kinematics1D& k, double t, double v_max) {
  const double ts = saturation_time(k, v_max);
  if (t < ts) return {k.v + k.a * t, k.a};
  return {k.a > 0.0 ? v_max : (k.a < 0.0 ? 0.0 : k.v), 0.0};
}

/// Distance travelled in [0, t] with saturation applied.
double dist_travelled(const Kinematics1D& k, double t, double v_max) {
  const double ts = saturation_time(k, v_max);
  if (t <= ts) return k.v * t + 0.5 * k.a * t * t;
  const double d_sat = k.v * ts + 0.5 * k.a * ts * ts;
  const double v_after = k.a > 0.0 ? v_max : (k.a < 0.0 ? 0.0 : k.v);
  return d_sat + v_after * (t - ts);
}

/// Smallest tau in [0, tau_max] solving d0 + dv*tau + 0.5*da*tau^2 = target,
/// excluding the trivial tau=0 root unless the trajectory moves outward.
std::optional<double> first_crossing(double d0, double dv, double da,
                                     double target, double tau_max) {
  constexpr double kEps = 1e-12;
  const double c = d0 - target;
  std::vector<double> roots;
  if (std::abs(da) < kEps) {
    if (std::abs(dv) >= kEps) roots.push_back(-c / dv);
  } else {
    const double half_a = 0.5 * da;
    const double disc = dv * dv - 4.0 * half_a * c;
    if (disc >= 0.0) {
      const double sq = std::sqrt(disc);
      roots.push_back((-dv - sq) / (2.0 * half_a));
      roots.push_back((-dv + sq) / (2.0 * half_a));
    }
  }
  std::optional<double> best;
  for (double tau : roots) {
    if (tau < -1e-9 || tau > tau_max + 1e-9) continue;
    tau = std::clamp(tau, 0.0, tau_max);
    if (tau < kEps) {
      // Root at the phase start: only counts as a crossing if separation is
      // actually heading past the boundary.
      const double outward = (target > 0.0 ? 1.0 : -1.0) * dv;
      if (outward <= kEps) continue;
    }
    if (!best || tau < *best) best = tau;
  }
  return best;
}

}  // namespace

double separation_at(Kinematics1D i, Kinematics1D j, double d0, double t,
                     double v_max) {
  return d0 + dist_travelled(i, t, v_max) - dist_travelled(j, t, v_max);
}

LinkLifetimeResult link_lifetime_1d(Kinematics1D i, Kinematics1D j, double d0,
                                    double r, double v_max) {
  VANET_ASSERT(r > 0.0);
  if (std::abs(d0) > r) {
    return {0.0, d0 > 0.0 ? 1 : -1};
  }
  // Phase boundaries: the saturation times of both vehicles, sorted.
  const double ts_i = saturation_time(i, v_max);
  const double ts_j = saturation_time(j, v_max);
  std::vector<double> cuts{0.0};
  for (double ts : {ts_i, ts_j}) {
    if (std::isfinite(ts) && ts > 0.0) cuts.push_back(ts);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  auto result_at = [&](double t) -> LinkLifetimeResult {
    const double d = separation_at(i, j, d0, t, v_max);
    return {t, d >= 0.0 ? 1 : -1};
  };

  // Closed phases [cuts[k], cuts[k+1]], then the open final phase.
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    const double t0 = cuts[k];
    const double span = cuts[k + 1] - t0;
    const double d_t0 = separation_at(i, j, d0, t0, v_max);
    const Kinematics1D si = state_at(i, t0, v_max);
    const Kinematics1D sj = state_at(j, t0, v_max);
    const double dv = si.v - sj.v;
    const double da = si.a - sj.a;
    std::optional<double> hit;
    for (double target : {r, -r}) {
      if (auto tau = first_crossing(d_t0, dv, da, target, span)) {
        if (!hit || *tau < *hit) hit = tau;
      }
    }
    if (hit) return result_at(t0 + *hit);
  }

  // Final phase: both saturated (or never saturating) — constant relative
  // acceleration forever.
  const double t0 = cuts.back();
  const double d_t0 = separation_at(i, j, d0, t0, v_max);
  const Kinematics1D si = state_at(i, t0, v_max);
  const Kinematics1D sj = state_at(j, t0, v_max);
  const double dv = si.v - sj.v;
  const double da = si.a - sj.a;
  std::optional<double> hit;
  for (double target : {r, -r}) {
    if (auto tau = first_crossing(d_t0, dv, da, target, kInfiniteLifetime)) {
      if (!hit || *tau < *hit) hit = tau;
    }
  }
  if (hit) return result_at(t0 + *hit);
  return {kInfiniteLifetime, 0};
}

std::optional<double> link_lifetime_2d(core::Vec2 pos_i, core::Vec2 vel_i,
                                       core::Vec2 acc_i, core::Vec2 pos_j,
                                       core::Vec2 vel_j, core::Vec2 acc_j,
                                       double r, double horizon, double dt,
                                       double tol) {
  VANET_ASSERT(r > 0.0 && horizon > 0.0 && dt > 0.0 && tol > 0.0);
  const core::Vec2 dp = pos_i - pos_j;
  const core::Vec2 dv = vel_i - vel_j;
  const core::Vec2 da = acc_i - acc_j;
  auto sep_sq = [&](double t) {
    const core::Vec2 d = dp + dv * t + da * (0.5 * t * t);
    return d.norm_sq();
  };
  const double r2 = r * r;
  if (sep_sq(0.0) >= r2) return 0.0;
  double prev = 0.0;
  for (double t = dt; t <= horizon + dt * 0.5; t += dt) {
    if (sep_sq(t) >= r2) {
      // Bisection on [prev, t].
      double lo = prev, hi = t;
      while (hi - lo > tol) {
        const double mid = 0.5 * (lo + hi);
        (sep_sq(mid) >= r2 ? hi : lo) = mid;
      }
      return 0.5 * (lo + hi);
    }
    prev = t;
  }
  return std::nullopt;
}

}  // namespace vanet::analysis

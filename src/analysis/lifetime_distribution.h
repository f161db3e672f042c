// Stochastic link-lifetime model (Sec. VII-A; premise of GVGrid and Yan).
//
// Assume the relative speed of two vehicles is a constant Delta-v drawn from
// N(mu, sigma^2) — "speed ... often assumed as normally distributed". With
// signed initial separation d0 in (-r, r), each realization's separation
// d(t) = d0 + Dv * t is linear, so the link-alive indicator is monotone and
//   S(t) = P(T > t) = P(-r < d0 + Dv t < r)
//        = Phi((r - d0 - mu t)/(sigma t)) - Phi((-r - d0 - mu t)/(sigma t)).
// Expected lifetime and survival follow from S(t). This is the
// "expected link duration" (Yan) and the link-reliability probability
// (GVGrid, NiuDe / Rubin-style availability) in one object.
#pragma once

namespace vanet::analysis {

class LinkLifetimeDistribution {
 public:
  /// Preconditions: r > 0, |d0| < r, sigma >= 0.
  LinkLifetimeDistribution(double r, double d0, double mu_dv, double sigma_dv);

  /// P(link still alive at time t). S(0) = 1; monotone non-increasing.
  double survival(double t) const;

  /// Truncated expectation E[min(T, horizon)] = integral of S over
  /// [0, horizon]. The truncation matters: whenever the relative-speed
  /// distribution has mass near zero, S(t) decays like 1/t and the untruncated
  /// mean diverges logarithmically — routing only needs a bounded ranking
  /// value. (sigma == 0 and mu == 0 returns horizon.)
  double expected_lifetime(double horizon = 3600.0) const;

 private:
  double r_;
  double d0_;
  double mu_;
  double sigma_;
};

}  // namespace vanet::analysis

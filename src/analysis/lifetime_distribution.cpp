#include "analysis/lifetime_distribution.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/signal.h"
#include "core/assert.h"

namespace vanet::analysis {

LinkLifetimeDistribution::LinkLifetimeDistribution(double r, double d0,
                                                   double mu_dv, double sigma_dv)
    : r_{r}, d0_{d0}, mu_{mu_dv}, sigma_{sigma_dv} {
  VANET_ASSERT(r > 0.0);
  VANET_ASSERT_MSG(std::abs(d0) < r, "link must exist at t=0");
  VANET_ASSERT(sigma_dv >= 0.0);
}

double LinkLifetimeDistribution::survival(double t) const {
  if (t <= 0.0) return 1.0;
  if (sigma_ == 0.0) {
    const double d = d0_ + mu_ * t;
    return (d > -r_ && d < r_) ? 1.0 : 0.0;
  }
  const double denom = sigma_ * t;
  const double upper = (r_ - d0_ - mu_ * t) / denom;
  const double lower = (-r_ - d0_ - mu_ * t) / denom;
  return normal_cdf(upper) - normal_cdf(lower);
}

double LinkLifetimeDistribution::expected_lifetime(double horizon) const {
  VANET_ASSERT(horizon > 0.0);
  if (sigma_ == 0.0) {
    if (mu_ == 0.0) return horizon;
    const double exact = mu_ > 0.0 ? (r_ - d0_) / mu_ : (r_ + d0_) / -mu_;
    return std::min(exact, horizon);
  }
  // E[min(T, horizon)] = integral of S(t) over [0, horizon], trapezoidal with
  // a geometrically growing step (S is smooth and monotone).
  double total = 0.0;
  double t = 0.0;
  double dt = 0.01;
  double s_prev = 1.0;
  while (t < horizon) {
    const double step = std::min(dt, horizon - t);
    const double s_next = survival(t + step);
    total += 0.5 * (s_prev + s_next) * step;
    t += step;
    s_prev = s_next;
    if (s_next < 1e-9) break;
    dt = std::min(dt * 1.05, 4.0);
  }
  return total;
}

}  // namespace vanet::analysis

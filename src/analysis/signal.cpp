#include "analysis/signal.h"

#include <algorithm>
#include <cmath>

#include "core/assert.h"

namespace vanet::analysis {

double path_loss_db(double d, const LogNormalParams& p) {
  const double dist = std::max(d, p.ref_distance_m);
  return p.ref_loss_db +
         10.0 * p.path_loss_exponent * std::log10(dist / p.ref_distance_m);
}

double mean_rx_dbm(double d, const LogNormalParams& p) {
  return p.tx_power_dbm - path_loss_db(d, p);
}

double receipt_probability(double d, const LogNormalParams& p) {
  VANET_ASSERT(p.shadowing_sigma_db >= 0.0);
  if (p.shadowing_sigma_db == 0.0) {
    return mean_rx_dbm(d, p) >= p.rx_threshold_dbm ? 1.0 : 0.0;
  }
  return normal_cdf((mean_rx_dbm(d, p) - p.rx_threshold_dbm) /
                    p.shadowing_sigma_db);
}

namespace {
/// Distance where mean_rx equals `level`.
double range_for_level(const LogNormalParams& p, double level) {
  const double budget_db = p.tx_power_dbm - p.ref_loss_db - level;
  if (budget_db <= 0.0) return p.ref_distance_m;
  return p.ref_distance_m *
         std::pow(10.0, budget_db / (10.0 * p.path_loss_exponent));
}
}  // namespace

double nominal_range(const LogNormalParams& p) {
  return range_for_level(p, p.rx_threshold_dbm);
}

double max_range(const LogNormalParams& p) {
  constexpr double kSigmas = 3.0;  // shadowing deviations below threshold
  return range_for_level(p,
                         p.rx_threshold_dbm - kSigmas * p.shadowing_sigma_db);
}

}  // namespace vanet::analysis

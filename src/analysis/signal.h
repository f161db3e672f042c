// Log-normal shadowing signal model and receipt probability (Sec. VII-A).
//
// "The received signal is often assumed to be normally or log-normally
// distributed. The distribution of the existence of a link can then be
// computed accordingly." — we implement the standard log-distance path loss
// with log-normal shadowing; REAR's receipt probability falls out as the
// Gaussian tail probability of the received power exceeding the threshold.
#pragma once

#include <cmath>

namespace vanet::analysis {

struct LogNormalParams {
  double tx_power_dbm = 20.0;        ///< transmit power
  double ref_distance_m = 1.0;       ///< d0 of the log-distance model
  double ref_loss_db = 46.7;         ///< path loss at d0 (5.9 GHz free space)
  double path_loss_exponent = 2.75;  ///< highway/urban mix
  double shadowing_sigma_db = 4.0;   ///< log-normal shadowing std dev
  double rx_threshold_dbm = -85.0;   ///< receiver sensitivity
};

/// Deterministic (mean) path loss at distance `d` >= ref_distance.
double path_loss_db(double d, const LogNormalParams& p);

/// Mean received power at distance `d`.
double mean_rx_dbm(double d, const LogNormalParams& p);

/// P(received power > threshold) at distance `d`:
/// Phi((mean_rx(d) - threshold) / sigma). This is REAR's receipt probability.
double receipt_probability(double d, const LogNormalParams& p);

/// Distance at which the *mean* received power equals the threshold
/// (receipt probability 0.5) — the "nominal range" used as r in the
/// lifetime equations when running over a shadowing channel.
double nominal_range(const LogNormalParams& p);

/// Distance beyond which receipt probability < Phi(-3) ~ 0.13 %: used by the
/// channel as a hard candidate-search cutoff.
double max_range(const LogNormalParams& p);

/// Standard normal CDF. Defined inline: the lifetime integrators call this
/// hundreds of times per link and the call overhead was measurable. The
/// expression is byte-for-byte the out-of-line version it replaces, so every
/// caller computes the same bits as before.
inline double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

}  // namespace vanet::analysis

#include "analysis/stats.h"

#include <algorithm>
#include <cmath>

#include "core/assert.h"

namespace vanet::analysis {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95_half_width() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double percentile(std::vector<double> samples, double q) {
  VANET_ASSERT(q >= 0.0 && q <= 1.0);
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double idx = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace vanet::analysis

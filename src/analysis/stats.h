// Small statistics toolkit used by the metrics collector and the benches.
#pragma once

#include <cstddef>
#include <vector>

namespace vanet::analysis {

/// Online mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  /// Half-width of the 95% normal-approximation confidence interval.
  double ci95_half_width() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// q-th percentile (q in [0,1]) by linear interpolation; the input need not
/// be sorted. Returns 0 for empty input.
double percentile(std::vector<double> samples, double q);

}  // namespace vanet::analysis

// Memoized link-lifetime scoring: the cache layer in front of
// LinkLifetimeDistribution::expected_lifetime.
//
// The expected-lifetime integral is a pure function of five doubles
// (radio range r, initial separation d0, relative-speed mean mu and sigma,
// truncation horizon) and costs a ~340-point numeric integration per call.
// The probability-model protocols (gvgrid, niude, yan) evaluate it once per
// received RREQ copy; because node kinematics only change on mobility ticks,
// the same (d0, mu) pair recurs across every flood of the same tick — the
// gvgrid route-geometry profile measured 43.7 M normal-CDF evaluations from
// 130 k calls in one 10 s run (docs/PERFORMANCE.md). The memo collapses the
// repeats with a hash map keyed on the *bit patterns* of all five inputs. A
// hit returns the exact double the integration produced, so scenario reports
// are bit-identical to the uncached path by construction.
//
// Ownership: one instance per NodeStack, shared by every per-node protocol
// instance of that stack (plumbed via ProtocolContext). Stacks are
// single-threaded, so the memo is deliberately unsynchronized; the
// ExperimentEngine's parallelism is across scenarios, each with its own
// memo. Entries live for the scenario's lifetime (speed parameters are
// per-run constants and positions quantize to mobility ticks, so the
// working set is bounded by distinct link geometries per run — a few MB at
// the largest bench sizes). Lookups never iterate the map, so unordered
// storage cannot leak order into results.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace vanet::analysis {

class LifetimeMemo {
 public:
  struct Stats {
    std::uint64_t hits = 0;    ///< calls answered without a new integration
    std::uint64_t misses = 0;  ///< calls that ran the numeric integration
  };

  /// E[min(T, horizon)] for LinkLifetimeDistribution{r, d0, mu, sigma} —
  /// served from cache when possible. Preconditions mirror the
  /// distribution's: r > 0, |d0| < r, sigma >= 0, horizon > 0.
  double expected_lifetime(double r, double d0, double mu, double sigma,
                           double horizon);

  const Stats& stats() const { return stats_; }

 private:
  struct Key {
    std::uint64_t r, d0, mu, sigma, horizon;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  Stats stats_;
  std::unordered_map<Key, double, KeyHash> exact_;
};

/// Convenience for protocol code: memoized when `memo` is non-null (the
/// stack's memo), the plain integration otherwise (line/test harnesses
/// without a scenario). Both paths return bit-identical values.
double expected_lifetime_via(LifetimeMemo* memo, double r, double d0,
                             double mu, double sigma, double horizon);

}  // namespace vanet::analysis

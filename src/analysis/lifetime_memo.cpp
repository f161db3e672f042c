#include "analysis/lifetime_memo.h"

#include <bit>

#include "analysis/lifetime_distribution.h"

namespace vanet::analysis {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

std::size_t LifetimeMemo::KeyHash::operator()(const Key& k) const {
  // FNV-1a over the five 64-bit lanes; cheap and collision-resistant enough
  // for the per-run working set (tens of thousands of keys).
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t lane : {k.r, k.d0, k.mu, k.sigma, k.horizon}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (lane >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return static_cast<std::size_t>(h);
}

double LifetimeMemo::expected_lifetime(double r, double d0, double mu,
                                       double sigma, double horizon) {
  const Key key{bits(r), bits(d0), bits(mu), bits(sigma), bits(horizon)};
  auto [it, inserted] = exact_.try_emplace(key, 0.0);
  if (inserted) {
    ++stats_.misses;
    it->second =
        LinkLifetimeDistribution{r, d0, mu, sigma}.expected_lifetime(horizon);
  } else {
    ++stats_.hits;
  }
  return it->second;
}

double expected_lifetime_via(LifetimeMemo* memo, double r, double d0,
                             double mu, double sigma, double horizon) {
  if (memo != nullptr) {
    return memo->expected_lifetime(r, d0, mu, sigma, horizon);
  }
  return LinkLifetimeDistribution{r, d0, mu, sigma}.expected_lifetime(horizon);
}

}  // namespace vanet::analysis

#include "core/rng.h"

#include "core/assert.h"

namespace vanet::core {

double Rng::uniform(double lo, double hi) {
  VANET_ASSERT(lo <= hi);
  return std::uniform_real_distribution<double>{lo, hi}(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  VANET_ASSERT(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution{p}(engine_);
}

double Rng::normal(double mean, double stddev) {
  VANET_ASSERT(stddev >= 0.0);
  if (stddev == 0.0) return mean;
  return std::normal_distribution<double>{mean, stddev}(engine_);
}

double Rng::exponential(double rate) {
  VANET_ASSERT(rate > 0.0);
  return std::exponential_distribution<double>{rate}(engine_);
}

namespace {
// SplitMix64 step — decorrelates the per-stream seeds derived from
// (master_seed, hash(name)) so streams are statistically independent.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

Rng& RngManager::stream(const std::string& name) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    const std::uint64_t h = std::hash<std::string>{}(name);
    const std::uint64_t seed = splitmix64(master_seed_ ^ splitmix64(h));
    it = streams_.emplace(name, std::make_unique<Rng>(seed)).first;
  }
  return *it->second;
}

}  // namespace vanet::core

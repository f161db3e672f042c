// Seeded random-number streams.
//
// Each subsystem (mobility, channel, MAC, traffic, ...) draws from its own
// named stream derived from the master seed, so adding randomness to one
// subsystem never perturbs another — a prerequisite for clean ablations.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>

namespace vanet::core {

/// One random stream. Thin convenience wrapper over mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  bool bernoulli(double p);
  double normal(double mean, double stddev);
  double exponential(double rate);

 private:
  std::mt19937_64 engine_;
};

/// Derives per-subsystem streams from a master seed.
class RngManager {
 public:
  explicit RngManager(std::uint64_t master_seed) : master_seed_{master_seed} {}

  /// Stream for `name`; created deterministically on first use.
  Rng& stream(const std::string& name);

 private:
  std::uint64_t master_seed_;
  std::unordered_map<std::string, std::unique_ptr<Rng>> streams_;
};

}  // namespace vanet::core

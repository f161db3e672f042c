// Lossy propagation models: links that can fail inside max_range().
//
// The unit-disk model (net/propagation.h) is the paper's analytical radio —
// deterministic, binary, fast. Real VANET channels are not: received power
// fluctuates around the path-loss mean, so per-link delivery becomes a
// probability. This header hosts the two fading families the scenario can
// select through `phy.model`:
//
//  - log-normal shadowing (`phy.model=shadowing`): slow fading; receipt
//    probability is the Gaussian tail of analysis/signal.h (Sec. VII-A,
//    REAR's premise);
//  - Nakagami-m fading (`phy.model=nakagami`): fast fading; instantaneous
//    received power is Gamma(m, mean/m) around the same log-distance path
//    loss, the standard highway-V2V channel model. m=1 is Rayleigh; larger
//    m approaches the deterministic disk.
//
// Both draw exactly one Bernoulli per candidate reception from the rng the
// Network hands them (the "net" stream), so swapping models never perturbs
// any other subsystem's draws. Both return false from
// always_receives_in_range(), keeping the MAC's fade-free fast path intact
// for the unit disk.
#pragma once

#include "analysis/signal.h"
#include "core/rng.h"
#include "net/propagation.h"

namespace vanet::net {

/// Log-distance path loss with log-normal shadowing (see analysis/signal.h).
class LogNormalShadowingModel final : public PropagationModel {
 public:
  explicit LogNormalShadowingModel(analysis::LogNormalParams params = {});

  double max_range() const override { return max_range_; }
  double nominal_range() const override { return nominal_range_; }
  bool try_receive(double distance, core::Rng& rng) const override;
  double receipt_probability(double distance) const override;

 private:
  analysis::LogNormalParams params_;
  double nominal_range_;
  double max_range_;
};

/// Nakagami-m fast fading over the same log-distance path loss. The receipt
/// probability is the Gamma tail P(power > threshold) = Q(m, m*g/mean),
/// evaluated in closed form for integer m (the Erlang tail). `m >= 1`; m=1
/// is Rayleigh fading, m -> inf approaches the unit disk.
class NakagamiFadingModel final : public PropagationModel {
 public:
  explicit NakagamiFadingModel(analysis::LogNormalParams params = {}, int m = 3);

  double max_range() const override { return max_range_; }
  double nominal_range() const override { return nominal_range_; }
  bool try_receive(double distance, core::Rng& rng) const override;
  double receipt_probability(double distance) const override;

 private:
  analysis::LogNormalParams params_;
  int m_;
  double nominal_range_;
  double max_range_;
};

}  // namespace vanet::net

// Link lifetime under vehicle kinematics — the analytical core of the paper
// (Sec. IV-A.1, Eqns. 1-4, Fig. 3).
//
// Two vehicles i and j move along a road with speeds v_i, v_j and
// accelerations a_i, a_j. With initial separation d0 = x_i - x_j (signed,
// positive when i is ahead), the separation evolves as
//     d(t) = d0 + (S_i(t) - S_j(t)),   S(t) = ∫ v(x) dx          (Eqns. 1-2)
// and the link breaks at the first t with |d(t)| = r, where r is the
// communication range. The paper's indicator function I(i,j) (Eqn. 3) tells
// which vehicle is ahead at the break: d(t*) = r * I(i,j) (Eqn. 4).
//
// We provide the exact piecewise-quadratic solution: each vehicle accelerates
// until its speed saturates at 0 or the speed limit v_m (the paper's "speed
// limit vm"), after which it travels at constant speed — so d(t) is piecewise
// quadratic and the first crossing of ±r can be found in closed form per
// phase. A 2-D numeric solver covers general headings (urban scenarios).
#pragma once

#include <limits>
#include <optional>

#include "core/vec2.h"

namespace vanet::analysis {

inline constexpr double kInfiniteLifetime = std::numeric_limits<double>::infinity();

/// 1-D kinematic state along the road axis: signed speed and acceleration.
/// Speed saturates at [0, v_max] (set v_max = +inf to disable the cap).
struct Kinematics1D {
  double v = 0.0;
  double a = 0.0;
};

struct LinkLifetimeResult {
  /// Seconds until |d(t)| first reaches r; kInfiniteLifetime when it never does;
  /// 0 when the link does not exist at t=0 (|d0| > r).
  double lifetime = 0.0;
  /// The paper's I(i,j): +1 when vehicle i is ahead at the break, -1 otherwise.
  /// Meaningless (0) for infinite lifetimes.
  int indicator = 0;
};

/// Exact lifetime of the (i, j) link for 1-D motion with speed saturation.
/// `d0` is the signed initial separation x_i - x_j; `r` the communication range.
LinkLifetimeResult link_lifetime_1d(Kinematics1D i, Kinematics1D j, double d0,
                                    double r,
                                    double v_max = kInfiniteLifetime);

/// Separation d(t) = x_i(t) - x_j(t) under the same saturating kinematics;
/// exposed for validation against the closed-form crossing time.
double separation_at(Kinematics1D i, Kinematics1D j, double d0, double t,
                     double v_max = kInfiniteLifetime);

/// Numeric lifetime for full 2-D motion with constant acceleration vectors:
/// first t in [0, horizon] with |p_i(t) - p_j(t)| >= r, located by sampling at
/// `dt` and refining with bisection to `tol`. Returns nullopt if the link
/// survives the whole horizon. Returns 0 if already out of range.
std::optional<double> link_lifetime_2d(core::Vec2 pos_i, core::Vec2 vel_i,
                                       core::Vec2 acc_i, core::Vec2 pos_j,
                                       core::Vec2 vel_j, core::Vec2 acc_j,
                                       double r, double horizon = 300.0,
                                       double dt = 0.05, double tol = 1e-4);

}  // namespace vanet::analysis

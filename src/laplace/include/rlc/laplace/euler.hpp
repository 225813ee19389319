#pragma once

/// \file euler.hpp
/// Numerical inverse Laplace transform by the Euler method (Abate & Whitt):
/// the trapezoidal discretization of the Bromwich integral on the vertical
/// line Re(s) = A/(2t), summed as an alternating Fourier series and
/// accelerated with Euler (binomial) averaging of the last `terms` partial
/// sums.
///
/// This complements the fixed-Talbot inverter (talbot.hpp).  Talbot's
/// deformed contour is extremely accurate when every singularity of F sits
/// near the negative real axis (overdamped / RC-like responses), but it
/// degrades to ~1e-2 absolute error on underdamped RLC responses whose
/// poles hug the imaginary axis — the contour cannot wrap around them.  The
/// Euler method keeps the contour vertical, so oscillatory time functions
/// converge just as well as monotone ones: with the defaults below the
/// discretization error is ~e^{-decay} ~ 1e-8 for |f| = O(1), and the
/// crosstalk waveform cross-checks against the MNA reference hold to the
/// ladder's own discretization error.
///
/// The price is per-t node sets: s_j = (decay/2 + i pi j) / t, so a
/// waveform of K times costs K * (burn_in + terms + 1) transfer
/// evaluations.  Both overloads take a span-of-nodes evaluator and gather
/// ALL nodes of ALL times into a single span evaluation, so a vectorized
/// evaluator (e.g. rlc::tline::BatchTransferEvaluator) amortizes its SIMD
/// transcendental core over the whole waveform in one call; exp(s_j t)
/// itself is free (e^{decay/2} (-1)^j by construction).
///
/// Requirements: F analytic for Re(s) > 0, f real-valued and O(1) at the
/// evaluated times (the wrap-around aliasing term scales with
/// e^{-decay} * sup|f|).

#include <cstddef>
#include <vector>

#include "rlc/laplace/talbot.hpp"  // BatchLaplaceFnRef

namespace rlc::laplace {

/// Tuning of the Euler inversion.  Defaults give ~8 significant digits for
/// smooth O(1) step responses; raising `decay` past ~2*16 ln 10 / 2 trades
/// aliasing error against roundoff amplification (e^{decay/2} ~ 1e4 with
/// the default is far from the double-precision cliff).
struct EulerOptions {
  int burn_in = 32;     ///< un-averaged leading partial sums (Abate-Whitt n)
  int terms = 14;       ///< binomially averaged tail terms (Abate-Whitt m)
  double decay = 18.4;  ///< Bromwich abscissa parameter A; error ~ e^{-A}
};

/// Nodes per time point: burn_in + terms + 1 transfer evaluations.
int euler_nodes(const EulerOptions& opts);

/// Invert F at a single time t > 0.
double euler_invert(BatchLaplaceFnRef F, double t,
                    const EulerOptions& opts = {});

/// Invert F at a vector of times with ONE span evaluation covering every
/// node of every time point.
std::vector<double> euler_invert(BatchLaplaceFnRef F,
                                 const std::vector<double>& times,
                                 const EulerOptions& opts = {});

}  // namespace rlc::laplace

#pragma once

/// \file transfer_detail.hpp
/// Shared kernels of the Eq. (1) transfer-function implementations:
/// the series-guarded sinh(x)/x and the singularity-free denominator
/// assembly used by exact_transfer_dc_safe and exact_transfer_skin, and the
/// series-guard threshold the BatchTransferEvaluator shares with them.
/// Internal to rlc_tline.

#include <cmath>
#include <complex>

#include "rlc/tline/transfer.hpp"

namespace rlc::tline::detail {

using cplx = std::complex<double>;

/// Series-guard threshold on |theta h|: below this sinhc (and the batch
/// kernel's cosh/sinhc pair) is evaluated by its Taylor series instead of
/// exp (analytic at 0, avoids 0/0).  The batch kernel tests |(theta h)^2|
/// instead (it carries theta^2 in SoA form), so it compares against the
/// SQUARE of this constant — both spellings live here so the scalar and
/// SIMD guards cannot drift.
inline constexpr double kSeriesGuardThreshold = 1e-4;
inline constexpr double kSeriesGuardThresholdSq =
    kSeriesGuardThreshold * kSeriesGuardThreshold;

/// sinh(x)/x with a series fallback near zero (analytic at x = 0).
inline cplx sinhc(cplx x) {
  if (std::abs(x) < kSeriesGuardThreshold) {
    const cplx x2 = x * x;
    return 1.0 + x2 / 6.0 + x2 * x2 / 120.0;
  }
  return std::sinh(x) / x;
}

/// Denominator of Eq. (1) in the singularity-free form, given the series
/// impedance per length zser = r + s l (or its skin-corrected variant), the
/// shunt admittance per length ypar = s c, and precomputed cosh(theta h)
/// and sinhc(theta h).  H(s) = 1 / denominator.
inline cplx dc_safe_denominator(const DriverLoad& dl, cplx s, cplx zser,
                                cplx ypar, double h, cplx ch, cplx shc) {
  return (1.0 + s * dl.rs_eff * (dl.cp_eff + dl.cl_eff)) * ch +
         dl.rs_eff * ypar * h * shc +
         (s * dl.cl_eff + s * s * dl.rs_eff * dl.cp_eff * dl.cl_eff) * zser *
             h * shc;
}

}  // namespace rlc::tline::detail

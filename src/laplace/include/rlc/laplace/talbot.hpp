#pragma once

/// \file talbot.hpp
/// Numerical inverse Laplace transform by the fixed-Talbot method
/// (Abate & Valko).  Used to recover the *exact* time-domain step response
/// of the driver-interconnect-load structure from Eq. (1) so the accuracy of
/// the second-order Pade model can be quantified (DESIGN.md, ablation 1).
///
/// Two evaluation modes:
///   * per-t contour (talbot_invert): the contour radius r = 2M/(5t) is
///     re-tuned for every time point — maximum accuracy, M transfer
///     evaluations per point;
///   * shared-contour window (TalbotContour / talbot_invert_window): the
///     contour is fixed at the window's t_max and ALL times in
///     [t_max/lambda, t_max] are recovered from the same M samples F(s_k).
///     An N-point waveform then costs M transfer evaluations instead of
///     N*M.  Accuracy at a time t inside the window behaves like a per-t
///     inversion with ~M*(t/t_max) contour points, so the window ratio
///     lambda trades evaluations against accuracy at the window foot.
///
/// Two evaluator signatures, both non-owning FunctionRef views:
///   * span-of-nodes (BatchLaplaceFnRef): fill F at n SoA nodes in ONE
///     call.  This is the primary path — a batched evaluator (e.g.
///     rlc::tline::BatchTransferEvaluator) amortizes its vectorized
///     transcendental core over the whole contour instead of being called
///     through type-erased dispatch M times.  The shared-contour window
///     takes only this form;
///   * per-point (LaplaceFnRef): cplx F(cplx s) — simple, M calls per
///     contour; kept for the per-t inversion of closed-form transforms.
///
/// Requirements: F(s) analytic for Re(s) > 0 with all singularities in the
/// open left half-plane (true for the passive RC/RLC structures here) and
/// f real-valued.

#include <complex>
#include <cstddef>
#include <functional>
#include <vector>

#include "rlc/base/function_ref.hpp"

namespace rlc::laplace {

/// Owning per-point evaluator type, kept for callers that store F.
using LaplaceFn = std::function<std::complex<double>(std::complex<double>)>;

/// Non-owning per-point evaluator view: must accept complex s with
/// Re(s) > 0.  Binds to lambdas, LaplaceFn, functors — no allocation.
using LaplaceFnRef =
    FunctionRef<std::complex<double>(std::complex<double>)>;

/// Non-owning span-of-nodes (SoA) evaluator view:
///   F(s_re, s_im, f_re, f_im, n) writes F(s_i) into f_re[i] + i f_im[i]
/// for the n nodes s_i = s_re[i] + i s_im[i].
using BatchLaplaceFnRef = FunctionRef<void(
    const double* s_re, const double* s_im, double* f_re, double* f_im,
    std::size_t n)>;

/// Invert F at a single time t > 0 with M Talbot contour points.
/// M ~ 32-64 gives ~10-12 significant digits for smooth f.
double talbot_invert(LaplaceFnRef F, double t, int M = 48);

/// Batch form: the M node samples come from one span evaluation and the
/// M complex exponentials exp(s_k t) from one vectorized sweep.
double talbot_invert(BatchLaplaceFnRef F, double t, int M = 48);

/// Invert F on a vector of time points (each with its own contour).
std::vector<double> talbot_invert(LaplaceFnRef F,
                                  const std::vector<double>& times, int M = 48);
std::vector<double> talbot_invert(BatchLaplaceFnRef F,
                                  const std::vector<double>& times, int M = 48);

/// A Talbot contour fixed at t_max with its F samples cached: construction
/// costs the M transfer evaluations, after which eval(t) for any
/// t in (0, t_max] costs only M complex exponentials.  This is the kernel
/// of the fast exact-waveform engine (rlc::core exact_* fast paths).
class TalbotContour {
 public:
  /// Samples F at the M contour nodes for the contour tuned to t_max —
  /// one span call, SoA end to end.
  /// Throws std::invalid_argument for t_max <= 0 or M < 4.
  TalbotContour(BatchLaplaceFnRef F, double t_max, int M = 48);

  double t_max() const noexcept { return t_max_; }
  int points() const noexcept { return static_cast<int>(weight_re_.size()); }

  /// f(t) from the cached samples.  Valid for 0 < t <= t_max (a small
  /// relative overshoot past t_max is tolerated); accuracy degrades as
  /// t/t_max shrinks — stay within the window ratio you validated.
  /// Throws std::invalid_argument outside (0, t_max].
  double eval(double t) const;

 private:
  // Flat real/imaginary arrays: eval() only ever needs the real part of
  // exp(s_k t) * w_k, so it runs on plain doubles (one real exp + sin/cos
  // per node) instead of full complex arithmetic.
  double t_max_ = 0.0;
  double r_ = 0.0;  ///< contour radius 2M/(5 t_max)
  std::vector<double> node_re_, node_im_;      ///< contour points s_k
  std::vector<double> weight_re_, weight_im_;  ///< F(s_k) * (1 + i sigma_k)
};

/// Invert F at all `times` from ONE shared contour fixed at t_max: M
/// transfer evaluations total.  Every time must lie in
/// [t_max/lambda, t_max]; lambda >= 1 bounds the window so callers cannot
/// silently push times into the inaccurate deep-foot regime.  Throws
/// std::invalid_argument on a time outside the window or lambda < 1.
std::vector<double> talbot_invert_window(BatchLaplaceFnRef F,
                                         const std::vector<double>& times,
                                         double t_max, int M = 48,
                                         double lambda = 4.0);

}  // namespace rlc::laplace

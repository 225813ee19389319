#pragma once

/// \file optimizer.hpp
/// Delay-per-unit-length minimization for buffered distributed RLC lines —
/// the paper's central contribution (Section 2.2).
///
/// A long line of length L is split into L/h segments, each driven by a
/// size-k repeater; the total delay is (L/h) tau(h, k), so the optimizer
/// minimizes tau/h.  Stationarity gives (Eqs. 5-6)
///
///   d(tau)/d(h) = tau / h,    d(tau)/d(k) = 0,
///
/// which, substituted into the differentiated delay equation (Eq. 3),
/// yields the residual system g1(h, k) = g2(h, k) = 0 of Eqs. (7)-(8).
/// This header exposes:
///   * the residuals themselves (with the analytic pole sensitivities),
///   * a damped Newton driver for the system (the paper's method),
///   * a derivative-free Nelder-Mead fallback / cross-check,
///   * a sweep helper with warm starts for the l-sweeps of Figures 4-8.

#include <cstddef>
#include <vector>

#include "rlc/core/delay.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/core/pade.hpp"
#include "rlc/core/technology.hpp"
#include "rlc/exec/counters.hpp"
#include "rlc/exec/thread_pool.hpp"

namespace rlc::core {

/// Realified residuals of Eqs. (7)-(8).  In exact arithmetic g1 and g2 are
/// purely real for overdamped and purely imaginary for underdamped systems;
/// the meaningful component is returned.
struct StationarityResiduals {
  double g1 = 0.0;  ///< d(tau/h)/dh stationarity residual
  double g2 = 0.0;  ///< d(tau/h)/dk stationarity residual
  double tau = 0.0; ///< threshold delay at (h, k) (by-product of the solve)
  bool valid = false;
};

/// Evaluate g1, g2 at (h, k).  `valid` is false when the inner delay solve
/// fails or the system is too close to critical damping for the pole
/// sensitivities to be meaningful.
StationarityResiduals stationarity_residuals(const Repeater& rep,
                                             const tline::LineParams& line,
                                             double h, double k,
                                             double f = 0.5);

/// Delay per unit length tau(h, k)/h for threshold f [s/m].
double delay_per_length(const Repeater& rep, const tline::LineParams& line,
                        double h, double k, double f = 0.5);

enum class OptimMethod { kNewton, kNelderMead };

/// Naming convention (DESIGN.md "Options hygiene"): iteration budgets are
/// `max_iterations`, tolerances are spelled-out `*_tolerance` — matching
/// math::NewtonOptions / math::NelderMeadOptions.  The deprecated pre-1.0
/// accessor aliases (max_newton_iterations, residual_tol) announced for a
/// one-release grace period have been removed.
struct OptimOptions {
  double f = 0.5;            ///< delay threshold fraction
  double h0 = 0.0;           ///< initial segment length (0: 0.9 * h_optRC)
  double k0 = 0.0;           ///< initial repeater size (0: 0.9 * k_optRC)
  int max_iterations = 80;   ///< Newton budget for the (h, k) system
  double residual_tolerance = 1e-9;  ///< on normalized residuals
  bool allow_fallback = true;  ///< Nelder-Mead when Newton fails
};

struct OptimResult {
  double h = 0.0;    ///< optimal segment length [m]
  double k = 0.0;    ///< optimal repeater size
  double tau = 0.0;  ///< threshold delay of one optimal segment [s]
  double delay_per_length = 0.0;  ///< tau / h [s/m]
  int newton_iterations = 0;      ///< Newton iterations used (0 if fallback only)
  OptimMethod method = OptimMethod::kNewton;
  bool converged = false;
};

/// Minimize tau/h over (h, k) for wire (r, l, c) and the given repeater.
OptimResult optimize_rlc(const Repeater& rep, const tline::LineParams& line,
                         const OptimOptions& opts = {});

/// Convenience overload: technology + per-unit-length inductance l [H/m].
OptimResult optimize_rlc(const Technology& tech, double l,
                         const OptimOptions& opts = {});

/// Execution policy for optimize_rlc_sweep: serial warm-start continuation
/// (each solve starts from the previous optimum, the natural continuation
/// for Figures 4-8) or the chunked-continuation parallel path.
///
/// The parallel path preserves warm-start semantics in two phases: a serial
/// pre-pass runs the continuation over every `chunk`-th point only,
/// producing a converged seed per chunk; the chunks then run concurrently
/// on the pool, each continuing serially from its seed.  Every point is
/// solved exactly once (chunk starts reuse the pre-pass result), all solves
/// are Newton-converged to the same residual tolerance, so the results
/// match the serial path to solver precision and are returned in input
/// order for any thread count.
struct SweepOptions {
  OptimOptions optim{};       ///< per-point solver options
  bool parallel = true;       ///< false: exact serial reference path
  std::size_t chunk = 4;      ///< points per continuation chunk (>= 1)
  exec::ThreadPool* pool = nullptr;    ///< null: exec::default_pool()
  exec::Counters* counters = nullptr;  ///< optional instrumentation sink
};

/// Optimize every l in l_values; results in input order.
std::vector<OptimResult> optimize_rlc_sweep(const Technology& tech,
                                            const std::vector<double>& l_values,
                                            const SweepOptions& sweep);

}  // namespace rlc::core

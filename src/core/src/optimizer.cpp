#include "rlc/core/optimizer.hpp"

#include "rlc/base/cancel.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

#include "rlc/base/status.hpp"
#include "rlc/math/nelder_mead.hpp"
#include "rlc/math/newton.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"

namespace rlc::core {

namespace {

using cplx = std::complex<double>;

struct PoleSens {
  cplx s1, s2;
  cplx ds1_dh, ds2_dh, ds1_dk, ds2_dk;
  double disc = 0.0;
  bool valid = false;
};

/// Poles and their analytic sensitivities to h and k:
///   ds/dx = [ -b1' +- (b1 b1' - 2 b2') / D ] / (2 b2) - s b2' / b2,
/// with D = sqrt(b1^2 - 4 b2) (complex).  Invalid when |D| is so small that
/// the 1/D terms lose all significance (near-critically-damped; the
/// optimizer falls back to the derivative-free path there).
PoleSens pole_sensitivities(const Repeater& rep, const tline::LineParams& line,
                            double h, double k) {
  PoleSens ps;
  const PadeCoeffs pc = pade_coeffs_hk(rep, line, h, k);
  const PadeDerivs pd = pade_derivs_hk(rep, line, h, k);
  const double b1 = pc.b1, b2 = pc.b2;
  ps.disc = b1 * b1 - 4.0 * b2;
  const cplx D = std::sqrt(cplx{ps.disc, 0.0});
  const double scale = b1 * b1 + 4.0 * b2;
  if (std::abs(D) * std::abs(D) < 1e-12 * scale) {
    ps.valid = false;
    return ps;
  }
  ps.s1 = (-b1 + D) / (2.0 * b2);
  ps.s2 = (-b1 - D) / (2.0 * b2);
  const auto dsd = [&](double db1, double db2, const cplx& s, double sign) {
    return (-db1 + sign * (b1 * db1 - 2.0 * db2) / D) / (2.0 * b2) -
           s * db2 / b2;
  };
  ps.ds1_dh = dsd(pd.db1_dh, pd.db2_dh, ps.s1, +1.0);
  ps.ds2_dh = dsd(pd.db1_dh, pd.db2_dh, ps.s2, -1.0);
  ps.ds1_dk = dsd(pd.db1_dk, pd.db2_dk, ps.s1, +1.0);
  ps.ds2_dk = dsd(pd.db1_dk, pd.db2_dk, ps.s2, -1.0);
  ps.valid = true;
  return ps;
}

/// Map the (analytically real-or-imaginary) complex residual to its
/// meaningful real component given the damping regime.
double realify(const cplx& g, double disc) {
  return disc < 0.0 ? g.imag() : g.real();
}

}  // namespace

StationarityResiduals stationarity_residuals(const Repeater& rep,
                                             const tline::LineParams& line,
                                             double h, double k, double f) {
  StationarityResiduals out;
  if (!(h > 0.0) || !(k > 0.0)) return out;
  const PoleSens ps = pole_sensitivities(rep, line, h, k);
  if (!ps.valid) return out;
  DelayOptions dopts;
  dopts.f = f;
  const TwoPole sys(pade_coeffs_hk(rep, line, h, k));
  const DelayResult dr = threshold_delay(sys, dopts);
  if (!dr.converged) return out;
  const double tau = dr.tau;
  const cplx e1 = std::exp(ps.s1 * tau);
  const cplx e2 = std::exp(ps.s2 * tau);
  // Eq. (7): stationarity in h (with d tau/d h = tau / h substituted).
  const cplx g1 = (1.0 - f) * (ps.ds2_dh - ps.ds1_dh) - ps.ds2_dh * e1 +
                  ps.ds1_dh * e2 -
                  ps.s2 * tau * (ps.ds1_dh + ps.s1 / h) * e1 +
                  ps.s1 * tau * (ps.ds2_dh + ps.s2 / h) * e2;
  // Eq. (8): stationarity in k (with d tau/d k = 0 substituted).
  const cplx g2 = (1.0 - f) * (ps.ds2_dk - ps.ds1_dk) - ps.ds2_dk * e1 -
                  ps.s2 * tau * ps.ds1_dk * e1 + ps.ds1_dk * e2 +
                  ps.s1 * tau * ps.ds2_dk * e2;
  out.g1 = realify(g1, ps.disc);
  out.g2 = realify(g2, ps.disc);
  out.tau = tau;
  out.valid = std::isfinite(out.g1) && std::isfinite(out.g2);
  return out;
}

double delay_per_length(const Repeater& rep, const tline::LineParams& line,
                        double h, double k, double f) {
  DelayOptions dopts;
  dopts.f = f;
  const DelayResult dr = segment_delay(rep, line, h, k, dopts);
  if (!dr.converged) {
    throw rlc::NoConvergenceError("delay_per_length: delay solve failed");
  }
  return dr.tau / h;
}

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

OptimResult nelder_mead_fallback(const Repeater& rep,
                                 const tline::LineParams& line,
                                 const OptimOptions& opts, double h_ref,
                                 double k_ref, double u0, double w0) {
  RLC_TRACE_SPAN("nelder_mead_fallback");
  static const int kFallbacks =
      obs::Registry::global().counter("optimizer.nm_fallbacks");
  obs::Registry::global().add(kFallbacks);
  const auto objective = [&](const std::vector<double>& x) -> double {
    const double h = x[0] * h_ref;
    const double k = x[1] * k_ref;
    if (!(h > 0.0) || !(k > 0.0)) return kNaN;
    DelayOptions dopts;
    dopts.f = opts.f;
    const DelayResult dr = segment_delay(rep, line, h, k, dopts);
    if (!dr.converged) return kNaN;
    return dr.tau / h;
  };
  rlc::math::NelderMeadOptions nm;
  nm.max_iterations = 4000;
  nm.f_tolerance = 1e-13;
  nm.x_tolerance = 1e-10;
  nm.initial_step = 0.15;
  const auto sol = rlc::math::nelder_mead(objective, {u0, w0}, nm);
  OptimResult res;
  res.method = OptimMethod::kNelderMead;
  res.h = sol.x[0] * h_ref;
  res.k = sol.x[1] * k_ref;
  res.converged = sol.converged && std::isfinite(sol.fx);
  if (res.converged) {
    DelayOptions dopts;
    dopts.f = opts.f;
    const DelayResult dr = segment_delay(rep, line, res.h, res.k, dopts);
    res.tau = dr.tau;
    res.delay_per_length = dr.tau / res.h;
  }
  return res;
}

}  // namespace

namespace {

/// Newton solves a stationarity system, which is also satisfied by saddle
/// points and maxima of tau/h; accept a candidate only if small
/// perturbations do not lower the objective.
bool is_local_minimum(const Repeater& rep, const tline::LineParams& line,
                      double h, double k, double f) {
  double base;
  try {
    base = delay_per_length(rep, line, h, k, f);
  } catch (const std::exception&) {
    return false;
  }
  for (const double eps : {1e-3, -1e-3}) {
    try {
      if (delay_per_length(rep, line, h * (1.0 + eps), k, f) <
          base * (1.0 - 1e-7)) {
        return false;
      }
      if (delay_per_length(rep, line, h, k * (1.0 + eps), f) <
          base * (1.0 - 1e-7)) {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

}  // namespace

OptimResult optimize_rlc(const Repeater& rep, const tline::LineParams& line,
                         const OptimOptions& opts) {
  RLC_TRACE_SPAN("optimize_rlc");
  static const int kCalls = obs::Registry::global().counter("optimizer.calls");
  obs::Registry::global().add(kCalls);
  line.validate();
  // Reference scales from the Elmore optimum: Newton operates on
  // (u, w) = (h/h_ref, k/k_ref) so both variables are O(1).
  const RcOptimum rc = rc_optimum(rep, line.r, line.c);
  const double h_ref = rc.h, k_ref = rc.k;
  const double u0 = (opts.h0 > 0.0 ? opts.h0 : 0.9 * rc.h) / h_ref;
  const double w0 = (opts.k0 > 0.0 ? opts.k0 : 0.9 * rc.k) / k_ref;

  // Residual normalization: constant row scales computed at the initial
  // point (a constant rescaling leaves the Newton iterates unchanged but
  // makes the convergence test dimensionless).
  double n1 = 1.0, n2 = 1.0;
  {
    const auto sr0 =
        stationarity_residuals(rep, line, u0 * h_ref, w0 * k_ref, opts.f);
    if (sr0.valid) {
      n1 = std::max(std::abs(sr0.g1), 1e-300);
      n2 = std::max(std::abs(sr0.g2), 1e-300);
    }
  }

  const rlc::math::Fn2 residual = [&](const std::array<double, 2>& x) {
    const auto sr =
        stationarity_residuals(rep, line, x[0] * h_ref, x[1] * k_ref, opts.f);
    if (!sr.valid) return std::array<double, 2>{kNaN, kNaN};
    return std::array<double, 2>{sr.g1 / n1, sr.g2 / n2};
  };

  rlc::math::NewtonOptions nopts;
  nopts.max_iterations = opts.max_iterations;
  nopts.f_tolerance = opts.residual_tolerance;
  nopts.x_tolerance = 1e-12;
  nopts.damped = true;
  const auto jac = rlc::math::fd_jacobian_2d(residual, 1e-6);
  const auto sol = rlc::math::newton_2d(residual, jac, {u0, w0}, nopts,
                                        std::array<double, 2>{1e-4, 1e-3});

  OptimResult res;
  res.method = OptimMethod::kNewton;
  res.newton_iterations = sol.iterations;
  if (sol.converged &&
      is_local_minimum(rep, line, sol.x[0] * h_ref, sol.x[1] * k_ref, opts.f)) {
    res.h = sol.x[0] * h_ref;
    res.k = sol.x[1] * k_ref;
    DelayOptions dopts;
    dopts.f = opts.f;
    const DelayResult dr = segment_delay(rep, line, res.h, res.k, dopts);
    if (dr.converged) {
      res.tau = dr.tau;
      res.delay_per_length = dr.tau / res.h;
      res.converged = true;
      return res;
    }
  }
  if (!opts.allow_fallback) {
    res.converged = false;
    return res;
  }
  // Newton failed or landed on a non-minimal stationary point: restart the
  // derivative-free search from the original guess, not the rejected point.
  OptimResult fb = nelder_mead_fallback(rep, line, opts, h_ref, k_ref, u0, w0);
  fb.newton_iterations = sol.iterations;
  return fb;
}

OptimResult optimize_rlc(const Technology& tech, double l,
                         const OptimOptions& opts) {
  return optimize_rlc(tech.rep, tech.line(l), opts);
}

namespace {

/// One timed, counter-recorded point solve.
OptimResult solve_instrumented(const Technology& tech, double l,
                               const OptimOptions& opts,
                               exec::Counters* counters) {
  const exec::StopWatch sw;
  const OptimResult r = optimize_rlc(tech, l, opts);
  if (counters) {
    counters->record_solve(r.newton_iterations,
                           r.method == OptimMethod::kNelderMead, !r.converged,
                           sw.seconds());
  }
  return r;
}

/// Serial warm-start continuation over l_values[begin:end) starting from
/// `start`, writing into out[begin:end).
void continue_serially(const Technology& tech,
                       const std::vector<double>& l_values, std::size_t begin,
                       std::size_t end, OptimOptions start,
                       exec::Counters* counters, std::vector<OptimResult>& out) {
  for (std::size_t i = begin; i < end; ++i) {
    const OptimResult r = solve_instrumented(tech, l_values[i], start, counters);
    out[i] = r;
    if (r.converged) {
      start.h0 = r.h;
      start.k0 = r.k;
    }
  }
}

}  // namespace

std::vector<OptimResult> optimize_rlc_sweep(const Technology& tech,
                                            const std::vector<double>& l_values,
                                            const SweepOptions& sweep) {
  const std::size_t n = l_values.size();
  std::vector<OptimResult> out(n);
  if (n == 0) return out;
  const std::size_t chunk = sweep.chunk > 0 ? sweep.chunk : 1;
  // No pool-size shortcut here: a 1-thread pool must take the same
  // chunk-seeded path as any other size, or results would depend on the
  // thread count (the scenario determinism tests pin this down).
  if (!sweep.parallel || n <= chunk) {
    continue_serially(tech, l_values, 0, n, sweep.optim, sweep.counters, out);
    return out;
  }
  exec::ThreadPool& pool = sweep.pool ? *sweep.pool : exec::default_pool();

  // Phase 1 (serial): continuation over the chunk-start points only; each
  // result seeds one chunk and doubles as that point's final answer, so the
  // total solve count equals the serial path's.
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  std::vector<OptimResult> seeds(n_chunks);
  {
    OptimOptions cur = sweep.optim;
    for (std::size_t j = 0; j < n_chunks; ++j) {
      const OptimResult r =
          solve_instrumented(tech, l_values[j * chunk], cur, sweep.counters);
      seeds[j] = r;
      if (r.converged) {
        cur.h0 = r.h;
        cur.k0 = r.k;
      }
    }
  }

  // Phase 2 (parallel): chunks are independent given their seeds; each
  // writes a disjoint slice of `out`, so ordering is by construction.
  pool.parallel_for(
      n_chunks,
      [&](std::size_t j) {
        const std::size_t begin = j * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        out[begin] = seeds[j];
        OptimOptions start = sweep.optim;
        if (seeds[j].converged) {
          start.h0 = seeds[j].h;
          start.k0 = seeds[j].k;
        }
        continue_serially(tech, l_values, begin + 1, end, start, sweep.counters,
                          out);
      },
      /*grain=*/1);
  return out;
}

}  // namespace rlc::core

#include "rlc/core/delay.hpp"

#include <cmath>
#include <stdexcept>

#include "rlc/base/status.hpp"
#include "rlc/math/newton.hpp"

namespace rlc::core {

DelayResult threshold_delay(const TwoPole& sys, const DelayOptions& opts) {
  if (!(opts.f > 0.0 && opts.f < 1.0)) {
    throw std::domain_error("threshold_delay: f must be in (0, 1)");
  }
  DelayResult res;
  // Characteristic time: for overdamped systems b1 dominates, for
  // underdamped the rise happens within a fraction of the ring period.
  const double t_char = std::max(sys.b1(), std::sqrt(sys.b2()));

  // Bracket the FIRST crossing of f: walk forward in small steps until
  // v(t) >= f.  v(0) = 0 < f and v -> 1 > f, so a crossing exists.
  const auto v = [&sys, &opts](double t) { return sys.step_response(t) - opts.f; };
  const int kStepsPerChar = 64;
  const double dt = t_char / kStepsPerChar;
  double lo = 0.0, hi = 0.0;
  bool bracketed = false;
  // 200 characteristic times is far beyond any physical delay here; the
  // response has settled long before.
  const long max_steps = 200L * kStepsPerChar;
  double prev_t = 0.0;
  for (long i = 1; i <= max_steps; ++i) {
    const double t = dt * static_cast<double>(i);
    if (v(t) >= 0.0) {
      lo = prev_t;
      hi = t;
      bracketed = true;
      break;
    }
    prev_t = t;
  }
  if (!bracketed) {
    res.converged = false;
    return res;
  }

  rlc::math::NewtonOptions nopts;
  nopts.max_iterations = opts.max_iterations;
  nopts.f_tolerance = 1e-14;
  nopts.x_tolerance = opts.rel_tolerance;
  const auto sol = rlc::math::newton_bisect_scalar(
      v, [&sys](double t) { return sys.step_response_derivative(t); }, lo, hi,
      nopts);
  res.tau = sol.x;
  res.newton_iterations = sol.iterations;
  res.converged = sol.converged;
  return res;
}

double delay_50(const TwoPole& sys) {
  const DelayResult r = threshold_delay(sys, {});
  if (!r.converged) {
    throw rlc::NoConvergenceError("delay_50: delay solve failed");
  }
  return r.tau;
}

DelayResult segment_delay(const Repeater& rep, const tline::LineParams& line,
                          double h, double k, const DelayOptions& opts) {
  const TwoPole sys(pade_coeffs_hk(rep, line, h, k));
  return threshold_delay(sys, opts);
}

}  // namespace rlc::core

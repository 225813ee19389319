#include "rlc/core/baselines.hpp"

#include <cmath>
#include <stdexcept>

#include "rlc/base/status.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/core/optimizer.hpp"
#include "rlc/math/brent.hpp"
#include "rlc/math/nelder_mead.hpp"

namespace rlc::core {

double critically_damped_delay(const PadeCoeffs& pc, double f) {
  if (!(f > 0.0 && f < 1.0)) {
    throw std::domain_error("critically_damped_delay: f must be in (0, 1)");
  }
  // Solve (1 + x) e^{-x} = 1 - f for x > 0.
  const double target = 1.0 - f;
  const auto g = [target](double x) {
    return (1.0 + x) * std::exp(-x) - target;
  };
  const auto r = rlc::math::brent_root(g, 0.0, 50.0, 1e-14);
  if (!r.converged) {
    throw rlc::NoConvergenceError(
        "critically_damped_delay: root solve failed");
  }
  // Critically damped pole s = -2/b1, so tau = x / |s| = x b1 / 2.
  return 0.5 * r.x * pc.b1;
}

double inductance_parameter(const Technology& tech, double l) {
  if (!(l >= 0.0)) throw std::domain_error("inductance_parameter: l must be >= 0");
  return (l / tech.r) / (tech.rep.rs * (tech.rep.c0 + tech.rep.cp));
}

CurveFitBaseline CurveFitBaseline::fit(const Technology& tech,
                                       const std::vector<double>& l_values) {
  struct Sample {
    double x;
    double h_ratio;
    double k_ratio;
  };
  const RcOptimum rc = rc_optimum(tech);
  std::vector<Sample> samples;
  OptimOptions opts;
  for (double l : l_values) {
    if (!(l > 0.0)) continue;
    const OptimResult r = optimize_rlc(tech, l, opts);
    if (!r.converged) continue;
    opts.h0 = r.h;  // warm-start the next point
    opts.k0 = r.k;
    samples.push_back({inductance_parameter(tech, l), r.h / rc.h, r.k / rc.k});
  }
  if (samples.size() < 3) {
    throw std::invalid_argument("CurveFitBaseline::fit: need >= 3 nonzero-l points");
  }

  // Least squares for (a, b) in ratio = 1 + a X^b (h) and 1/(1 + a X^b) (k).
  const auto sse = [&samples](double a, double b, bool for_h) {
    if (a <= 0.0 || b <= 0.0 || b > 5.0) return 1e300;
    double acc = 0.0;
    for (const auto& s : samples) {
      const double model = for_h ? 1.0 + a * std::pow(s.x, b)
                                 : 1.0 / (1.0 + a * std::pow(s.x, b));
      const double data = for_h ? s.h_ratio : s.k_ratio;
      acc += (model - data) * (model - data);
    }
    return acc;
  };
  rlc::math::NelderMeadOptions nm;
  nm.max_iterations = 5000;
  nm.x_tolerance = 1e-8;
  const auto fit_h = rlc::math::nelder_mead(
      [&](const std::vector<double>& p) { return sse(p[0], p[1], true); },
      {0.5, 0.8}, nm);
  const auto fit_k = rlc::math::nelder_mead(
      [&](const std::vector<double>& p) { return sse(p[0], p[1], false); },
      {0.5, 0.8}, nm);

  CurveFitBaseline out;
  out.a_h_ = fit_h.x[0];
  out.b_h_ = fit_h.x[1];
  out.a_k_ = fit_k.x[0];
  out.b_k_ = fit_k.x[1];
  out.x_min_ = samples.front().x;
  out.x_max_ = samples.back().x;
  return out;
}

double CurveFitBaseline::h_opt(const Technology& tech, double l) const {
  const double x = inductance_parameter(tech, l);
  return rc_optimum(tech).h * (1.0 + a_h_ * std::pow(x, b_h_));
}

double CurveFitBaseline::k_opt(const Technology& tech, double l) const {
  const double x = inductance_parameter(tech, l);
  return rc_optimum(tech).k / (1.0 + a_k_ * std::pow(x, b_k_));
}

}  // namespace rlc::core

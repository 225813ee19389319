#pragma once

/// \file derivative.hpp
/// Finite-difference derivatives with Richardson extrapolation: the test
/// suite's oracle for the analytic sensitivities (d b1/d h, d s1/d k, ...)
/// that the (h, k) optimizer relies on.  Test-only; no library code
/// differentiates numerically.

#include <algorithm>
#include <cmath>

namespace rlc::testing {

namespace detail {
inline double step_for(double x, double rel_step) {
  return rel_step * std::max(std::abs(x), 1e-30);
}
}  // namespace detail

/// Central-difference first derivative of f at x with relative step.
template <typename F>
double central_diff(const F& f, double x, double rel_step = 1e-6) {
  const double h = detail::step_for(x, rel_step);
  return (f(x + h) - f(x - h)) / (2.0 * h);
}

/// Richardson-extrapolated central difference (two step sizes, O(h^4)).
template <typename F>
double richardson_diff(const F& f, double x, double rel_step = 1e-4) {
  const double d1 = central_diff(f, x, rel_step);
  const double d2 = central_diff(f, x, 0.5 * rel_step);
  return (4.0 * d2 - d1) / 3.0;
}

/// Second derivative by central differences.
template <typename F>
double central_diff2(const F& f, double x, double rel_step = 1e-4) {
  const double h = detail::step_for(x, rel_step);
  return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h);
}

}  // namespace rlc::testing

#pragma once

/// \file stehfest.hpp
/// Gaver–Stehfest inverse Laplace transform: the test suite's independent
/// oracle for the Talbot inversion.  It only needs F on the real axis, so a
/// systematic error in the complex contour cannot hide in both.  Accurate
/// for smooth (non-oscillatory) responses only; it loses accuracy on
/// strongly underdamped ones, which the tests document.  Test-only; the
/// library inverts with Talbot and Euler.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace rlc::testing {

/// Stehfest weights V_k (1-based, v[0] unused) for even N >= 2.
inline std::vector<double> stehfest_weights(int N) {
  if (N < 2 || N % 2 != 0) {
    throw std::invalid_argument("stehfest_weights: N must be even and >= 2");
  }
  auto factorial = [](int m) {
    double f = 1.0;
    for (int i = 2; i <= m; ++i) f *= i;
    return f;
  };
  std::vector<double> v(N + 1, 0.0);
  const int half = N / 2;
  for (int k = 1; k <= N; ++k) {
    double sum = 0.0;
    const int jmin = (k + 1) / 2;
    const int jmax = std::min(k, half);
    for (int j = jmin; j <= jmax; ++j) {
      const double num = std::pow(static_cast<double>(j), half) * factorial(2 * j);
      const double den = factorial(half - j) * factorial(j) * factorial(j - 1) *
                         factorial(k - j) * factorial(2 * j - k);
      sum += num / den;
    }
    v[k] = ((k + half) % 2 == 0 ? 1.0 : -1.0) * sum;
  }
  return v;
}

namespace detail {
template <typename F>
double stehfest_invert_with_weights(const F& F_real, double t,
                                    const std::vector<double>& v) {
  if (!(t > 0.0)) throw std::invalid_argument("stehfest_invert: t must be > 0");
  const int N = static_cast<int>(v.size()) - 1;
  const double ln2_t = std::log(2.0) / t;
  double acc = 0.0;
  for (int k = 1; k <= N; ++k) acc += v[k] * F_real(k * ln2_t);
  return acc * ln2_t;
}
}  // namespace detail

/// Invert F (real-axis samples only) at time t > 0 using N terms
/// (N even, typically 12-18; larger N amplifies roundoff).
template <typename F>
double stehfest_invert(const F& F_real, double t, int N = 14) {
  return detail::stehfest_invert_with_weights(F_real, t, stehfest_weights(N));
}

/// Invert F on a vector of time points, sharing one weight table.  Each time
/// still needs its own N samples (the abscissae scale with 1/t).
template <typename F>
std::vector<double> stehfest_invert(const F& F_real,
                                    const std::vector<double>& times,
                                    int N = 14) {
  const auto v = stehfest_weights(N);
  std::vector<double> out;
  out.reserve(times.size());
  for (double t : times) {
    out.push_back(detail::stehfest_invert_with_weights(F_real, t, v));
  }
  return out;
}

}  // namespace rlc::testing

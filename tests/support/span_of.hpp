#pragma once

/// \file span_of.hpp
/// Span-of-nodes form of a per-point transform cplx F(cplx s), for the
/// inverters that take only the BatchLaplaceFnRef signature (the
/// shared-contour Talbot window and Euler).  Test-only.

#include <complex>
#include <cstddef>

namespace rlc::testing {

template <typename F>
auto span_of(F f) {
  return [f](const double* sr, const double* si, double* fr, double* fi,
             std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::complex<double> v = f(std::complex<double>{sr[i], si[i]});
      fr[i] = v.real();
      fi[i] = v.imag();
    }
  };
}

}  // namespace rlc::testing

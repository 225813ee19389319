#include "rlc/laplace/talbot.hpp"

#include "rlc/base/cancel.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "rlc/base/simd.hpp"
#include "rlc/math/constants.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"

namespace rlc::laplace {

namespace {

using cplx = std::complex<double>;

/// Talbot node s_k and path weight (1 + i sigma_k) for k in [0, M);
/// k = 0 is the real-axis point s = r with weight 1/2 (half the endpoint).
cplx talbot_node(double r, int k, int M) {
  if (k == 0) return cplx{r, 0.0};
  const double theta = k * rlc::math::kPi / M;
  const double cot = std::cos(theta) / std::sin(theta);
  return cplx{r * theta * cot, r * theta};
}

cplx talbot_weight(int k, int M) {
  if (k == 0) return cplx{0.5, 0.0};
  const double theta = k * rlc::math::kPi / M;
  const double cot = std::cos(theta) / std::sin(theta);
  // sigma(theta) = theta + (theta*cot - 1)*cot
  const double sigma = theta + (theta * cot - 1.0) * cot;
  return cplx{1.0, sigma};
}

/// The r-independent part of the contour: s_k = r * base_k with
/// base_k = theta cot(theta) + i theta, plus the path weights.  The engine
/// builds several same-M contours per threshold solve, so cache the last M
/// per thread and skip the trigonometry on rebuilds.
struct ContourBasis {
  int M = 0;
  std::vector<cplx> base, weight;
};

const ContourBasis& contour_basis(int M) {
  thread_local ContourBasis basis;
  if (basis.M != M) {
    basis.M = M;
    basis.base.assign(1, cplx{1.0, 0.0});
    basis.weight.assign(1, talbot_weight(0, M));
    for (int k = 1; k < M; ++k) {
      basis.base.push_back(talbot_node(1.0, k, M));
      basis.weight.push_back(talbot_weight(k, M));
    }
  }
  return basis;
}

/// Per-thread SoA scratch for the batch per-t inversion: node coordinates,
/// F samples and exp(s t) lanes.  Reused across calls — the engine's
/// refinement loop inverts at a handful of t per solve.
struct InvertScratch {
  std::vector<double> sr, si, fr, fi, er, ei;
  void resize(std::size_t m) {
    sr.resize(m);
    si.resize(m);
    fr.resize(m);
    fi.resize(m);
    er.resize(m);
    ei.resize(m);
  }
};

void count_invert(int M) {
  auto& reg = obs::Registry::global();
  static const int kCalls = reg.counter("talbot.invert.calls");
  static const int kEvals = reg.counter("talbot.invert.f_evals");
  reg.add(kCalls);
  reg.add(kEvals, M);
}

void validate_invert(double t, int M) {
  if (!(t > 0.0)) throw std::invalid_argument("talbot_invert: t must be > 0");
  if (M < 4) throw std::invalid_argument("talbot_invert: M must be >= 4");
}

}  // namespace

double talbot_invert(LaplaceFnRef F, double t, int M) {
  validate_invert(t, M);
  count_invert(M);
  rlc::checkpoint();  // one stop point per inversion, not per node
  const double r = 2.0 * M / (5.0 * t);
  double acc = 0.0;
  for (int k = 0; k < M; ++k) {
    const cplx s = talbot_node(r, k, M);
    const cplx amp = std::exp(s * t) * F(s) * talbot_weight(k, M);
    acc += amp.real();
  }
  return acc * r / M;
}

double talbot_invert(BatchLaplaceFnRef F, double t, int M) {
  validate_invert(t, M);
  count_invert(M);
  rlc::checkpoint();
  const double r = 2.0 * M / (5.0 * t);
  const ContourBasis& basis = contour_basis(M);
  thread_local InvertScratch sc;
  const auto m = static_cast<std::size_t>(M);
  sc.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    sc.sr[k] = r * basis.base[k].real();
    sc.si[k] = r * basis.base[k].imag();
  }
  F(sc.sr.data(), sc.si.data(), sc.fr.data(), sc.fi.data(), m);
  // exp(s_k t) for the whole contour in one vectorized sweep; reuse the
  // node lanes as the scaled arguments.
  for (std::size_t k = 0; k < m; ++k) {
    sc.sr[k] *= t;
    sc.si[k] *= t;
  }
  simd::cexp_pd(simd::active_level(), sc.sr.data(), sc.si.data(),
                sc.er.data(), sc.ei.data(), m);
  double acc = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    const double wr = basis.weight[k].real();
    const double wi = basis.weight[k].imag();
    const double fwr = sc.fr[k] * wr - sc.fi[k] * wi;
    const double fwi = sc.fr[k] * wi + sc.fi[k] * wr;
    acc += sc.er[k] * fwr - sc.ei[k] * fwi;
  }
  return acc * r / M;
}

std::vector<double> talbot_invert(LaplaceFnRef F,
                                  const std::vector<double>& times, int M) {
  std::vector<double> out;
  out.reserve(times.size());
  for (double t : times) out.push_back(talbot_invert(F, t, M));
  return out;
}

std::vector<double> talbot_invert(BatchLaplaceFnRef F,
                                  const std::vector<double>& times, int M) {
  std::vector<double> out;
  out.reserve(times.size());
  for (double t : times) out.push_back(talbot_invert(F, t, M));
  return out;
}

TalbotContour::TalbotContour(BatchLaplaceFnRef F, double t_max, int M) {
  if (!(t_max > 0.0)) {
    throw std::invalid_argument("TalbotContour: t_max must be > 0");
  }
  if (M < 4) throw std::invalid_argument("TalbotContour: M must be >= 4");
  RLC_TRACE_SPAN("talbot_contour");
  rlc::checkpoint();  // one stop point per shared contour build
  auto& reg = obs::Registry::global();
  static const int kContours = reg.counter("talbot.contours");
  static const int kEvalsPerContour =
      reg.histogram("talbot.contour.f_evals", 4.0, 4096.0, 20);
  reg.add(kContours);
  reg.record(kEvalsPerContour, static_cast<double>(M));
  t_max_ = t_max;
  r_ = 2.0 * M / (5.0 * t_max);
  const auto m = static_cast<std::size_t>(M);
  const ContourBasis& basis = contour_basis(M);
  node_re_.resize(m);
  node_im_.resize(m);
  weight_re_.resize(m);
  weight_im_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    node_re_[k] = r_ * basis.base[k].real();
    node_im_[k] = r_ * basis.base[k].imag();
  }
  // One span evaluation for all M samples; the weights then fold in the
  // path factors (1 + i sigma_k) in place.
  F(node_re_.data(), node_im_.data(), weight_re_.data(), weight_im_.data(),
    m);
  for (std::size_t k = 0; k < m; ++k) {
    const double fr = weight_re_[k];
    const double fi = weight_im_[k];
    const double wr = basis.weight[k].real();
    const double wi = basis.weight[k].imag();
    weight_re_[k] = fr * wr - fi * wi;
    weight_im_[k] = fr * wi + fi * wr;
  }
}

double TalbotContour::eval(double t) const {
  // Allow a hair past t_max so root-finders can probe the upper bracket
  // endpoint without tripping on rounding.
  if (!(t > 0.0) || t > t_max_ * (1.0 + 1e-12)) {
    throw std::invalid_argument("TalbotContour::eval: t outside (0, t_max]");
  }
  // Re(exp(s_k t) w_k) on plain doubles: exp(Re s_k t) * (cos(Im s_k t)
  // Re w_k - sin(Im s_k t) Im w_k).  This is eval's entire cost, so keep it
  // free of complex arithmetic.
  double acc = 0.0;
  const std::size_t m = weight_re_.size();
  for (std::size_t k = 0; k < m; ++k) {
    const double e = std::exp(node_re_[k] * t);
    const double ph = node_im_[k] * t;
    acc += e * (std::cos(ph) * weight_re_[k] - std::sin(ph) * weight_im_[k]);
  }
  return acc * r_ / static_cast<double>(m);
}

std::vector<double> talbot_invert_window(BatchLaplaceFnRef F,
                                         const std::vector<double>& times,
                                         double t_max, int M, double lambda) {
  if (!(lambda >= 1.0)) {
    throw std::invalid_argument("talbot_invert_window: lambda must be >= 1");
  }
  const double t_min = t_max / lambda;
  for (double t : times) {
    if (!(t > 0.0) || t < t_min * (1.0 - 1e-12) ||
        t > t_max * (1.0 + 1e-12)) {
      throw std::invalid_argument(
          "talbot_invert_window: every time must lie in [t_max/lambda, "
          "t_max]");
    }
  }
  const TalbotContour contour(F, t_max, M);
  std::vector<double> out;
  out.reserve(times.size());
  for (double t : times) out.push_back(contour.eval(t));
  return out;
}

}  // namespace rlc::laplace

#include "rlc/tline/batch_evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "rlc/obs/metrics.hpp"
#include "transfer_detail.hpp"

namespace rlc::tline {

namespace {

// Stage buffers live on the stack; blocks keep them inside L1 while still
// amortizing the vectorized exp over full SIMD sweeps.
constexpr std::size_t kBlock = 128;

/// 1/(a + ib) with the magnitudes pre-scaled so |denominator| anywhere in
/// the normal range neither overflows nor underflows the intermediate
/// squares (the plain conj/|z|^2 form dies near sqrt(DBL_MAX)).
inline void crecip(double a, double b, double& rr, double& ri) {
  const double m = std::max(std::abs(a), std::abs(b));
  const double sc = 1.0 / m;
  if (!std::isfinite(sc) || sc <= 0.0) {
    // m is 0, inf or NaN: no finite reciprocal exists; the naive form
    // propagates the right inf/NaN flavor.
    const double d = a * a + b * b;
    rr = a / d;
    ri = -b / d;
    return;
  }
  const double as = a * sc;
  const double bs = b * sc;
  const double minv = 1.0 / (as * as + bs * bs);  // scaled |z|^2 in [1, 2]
  rr = sc * as * minv;
  ri = -(sc * bs * minv);
}

}  // namespace

BatchTransferEvaluator::BatchTransferEvaluator(const LineParams& line,
                                               double h, const DriverLoad& dl,
                                               simd::Level level)
    : level_(level) {
  line.validate();
  rs_cp_cl_ = dl.rs_eff * (dl.cp_eff + dl.cl_eff);
  rs_ch_ = dl.rs_eff * line.c * h;
  cl_ = dl.cl_eff;
  rs_cp_cl2_ = dl.rs_eff * dl.cp_eff * dl.cl_eff;
  ch_ = line.c * h;
  lh_ = line.l * h;
  rh_ = line.r * h;
}

BatchTransferEvaluator::~BatchTransferEvaluator() {
  auto& reg = obs::Registry::global();
  static const int kEvals = reg.counter("tline.transfer.evals");
  static const int kPasses = reg.counter("tline.transfer.batch_passes");
  if (evaluations_ > 0) {
    reg.add(kEvals, static_cast<std::int64_t>(evaluations_));
  }
  if (passes_ > 0) {
    reg.add(kPasses, static_cast<std::int64_t>(passes_));
  }
}

void BatchTransferEvaluator::eval(const double* s_re, const double* s_im,
                                  double* out_re, double* out_im,
                                  std::size_t n, bool divide_by_s) const {
  double th_re[kBlock], th_im[kBlock];  // theta h = sqrt(zser ypar) h
  double e_re[kBlock], e_im[kBlock];    // exp(theta h)
  double zr[kBlock], zi[kBlock];        // zser h = (r + s l) h
  double wr[kBlock], wi[kBlock];        // (theta h)^2 = zser ypar h^2

  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = std::min(kBlock, n - base);
    const double* sr = s_re + base;
    const double* si = s_im + base;

    // Stage 1: per-node impedance products and the principal complex sqrt
    // giving Re(theta h) >= 0, so exp(theta h) never underflows into the
    // 1/e reciprocal.
    for (std::size_t i = 0; i < m; ++i) {
      const double zre = rh_ + sr[i] * lh_;
      const double zim = si[i] * lh_;
      const double yre = sr[i] * ch_;
      const double yim = si[i] * ch_;
      zr[i] = zre;
      zi[i] = zim;
      const double pre = zre * yre - zim * yim;
      const double pim = zre * yim + zim * yre;
      wr[i] = pre;
      wi[i] = pim;
      const double mag = std::sqrt(pre * pre + pim * pim);
      double tre, tim;
      if (pre >= 0.0) {
        tre = std::sqrt(0.5 * (mag + pre));
        tim = tre > 0.0 ? 0.5 * pim / tre : 0.0;
      } else {
        tim = std::copysign(std::sqrt(0.5 * (mag - pre)), pim);
        tre = pim == 0.0 ? 0.0 : 0.5 * pim / tim;
      }
      th_re[i] = tre;
      th_im[i] = tim;
    }

    // Stage 2: the transcendental core — ONE vectorized complex exp sweep.
    simd::cexp_pd(level_, th_re, th_im, e_re, e_im, m);

    // Stage 3: cosh/sinhc from e and 1/e, dc-safe denominator, reciprocal.
    for (std::size_t i = 0; i < m; ++i) {
      // exp(theta h) overflowed: |denominator| grows like |e|, so H (and
      // H/s) is 0 to double precision.  The per-point path reaches the same
      // value through IEEE inf arithmetic (1/inf); division chains on inf
      // operands would hand us NaN instead, so saturate explicitly.
      if (!(std::isfinite(e_re[i]) && std::isfinite(e_im[i]))) {
        out_re[base + i] = 0.0;
        out_im[base + i] = 0.0;
        continue;
      }
      double chr, chi, shr, shi;  // cosh(th), sinh(th)/th
      // Same guard as detail::sinhc: |th| < t  <=>  |th^2| < t^2.
      if (std::sqrt(wr[i] * wr[i] + wi[i] * wi[i]) <
          detail::kSeriesGuardThresholdSq) {
        // Series in w = th^2, analytic through th = 0.
        const double w2r = wr[i] * wr[i] - wi[i] * wi[i];
        const double w2i = 2.0 * wr[i] * wi[i];
        chr = 1.0 + 0.5 * wr[i] + w2r / 24.0;
        chi = 0.5 * wi[i] + w2i / 24.0;
        shr = 1.0 + wr[i] / 6.0 + w2r / 120.0;
        shi = wi[i] / 6.0 + w2i / 120.0;
      } else {
        double ivr, ivi;  // 1/e
        crecip(e_re[i], e_im[i], ivr, ivi);
        chr = 0.5 * (e_re[i] + ivr);
        chi = 0.5 * (e_im[i] + ivi);
        double tvr, tvi;  // 1/th
        crecip(th_re[i], th_im[i], tvr, tvi);
        const double dr = 0.5 * (e_re[i] - ivr);
        const double di = 0.5 * (e_im[i] - ivi);
        shr = dr * tvr - di * tvi;
        shi = dr * tvi + di * tvr;
      }

      const double a = sr[i];
      const double b = si[i];
      // g1 = 1 + s Rs(Cp+Cl)
      const double g1r = 1.0 + a * rs_cp_cl_;
      const double g1i = b * rs_cp_cl_;
      // g2 = s Rs c h
      const double g2r = a * rs_ch_;
      const double g2i = b * rs_ch_;
      // g3 = (s Cl + s^2 Rs Cp Cl) zser h
      const double s2r = a * a - b * b;
      const double s2i = 2.0 * a * b;
      const double pr = a * cl_ + s2r * rs_cp_cl2_;
      const double pi = b * cl_ + s2i * rs_cp_cl2_;
      const double g3r = pr * zr[i] - pi * zi[i];
      const double g3i = pr * zi[i] + pi * zr[i];
      // denom = g1 ch + (g2 + g3) shc
      const double g23r = g2r + g3r;
      const double g23i = g2i + g3i;
      const double denr = g1r * chr - g1i * chi + g23r * shr - g23i * shi;
      const double deni = g1r * chi + g1i * chr + g23r * shi + g23i * shr;

      // Same saturation for a denominator that overflowed on its own (huge
      // cosh/sinhc times the line coefficients): 1/inf == 0.
      if (!(std::isfinite(denr) && std::isfinite(deni))) {
        out_re[base + i] = 0.0;
        out_im[base + i] = 0.0;
        continue;
      }
      double hr, hi;
      crecip(denr, deni, hr, hi);
      if (divide_by_s) {
        double svr, svi;
        crecip(a, b, svr, svi);
        out_re[base + i] = hr * svr - hi * svi;
        out_im[base + i] = hr * svi + hi * svr;
      } else {
        out_re[base + i] = hr;
        out_im[base + i] = hi;
      }
    }
  }

  evaluations_ += n;
  ++passes_;
}

void BatchTransferEvaluator::transfer(const double* s_re, const double* s_im,
                                      double* h_re, double* h_im,
                                      std::size_t n) const {
  eval(s_re, s_im, h_re, h_im, n, /*divide_by_s=*/false);
}

void BatchTransferEvaluator::step(const double* s_re, const double* s_im,
                                  double* f_re, double* f_im,
                                  std::size_t n) const {
  eval(s_re, s_im, f_re, f_im, n, /*divide_by_s=*/true);
}

std::complex<double> BatchTransferEvaluator::transfer(
    std::complex<double> s) const {
  const double sr = s.real(), si = s.imag();
  double hr, hi;
  eval(&sr, &si, &hr, &hi, 1, /*divide_by_s=*/false);
  return {hr, hi};
}

std::complex<double> BatchTransferEvaluator::step(
    std::complex<double> s) const {
  const double sr = s.real(), si = s.imag();
  double fr, fi;
  eval(&sr, &si, &fr, &fi, 1, /*divide_by_s=*/true);
  return {fr, fi};
}

}  // namespace rlc::tline

// Seam test for the theta*h series-guard threshold shared between the
// per-point exact_transfer_dc_safe (detail::sinhc, |th| test) and the SoA
// BatchTransferEvaluator (|th^2| test): both must read the ONE constant in
// transfer_detail.hpp, and the two kernels must agree across the switch.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "../../src/tline/src/transfer_detail.hpp"
#include "rlc/tline/batch_evaluator.hpp"
#include "rlc/tline/transfer.hpp"

namespace {

using cplx = std::complex<double>;
using rlc::tline::BatchTransferEvaluator;
using rlc::tline::DriverLoad;
using rlc::tline::LineParams;
namespace detail = rlc::tline::detail;

TEST(SeriesGuardSeam, SquaredSpellingIsExactlyTheSquare) {
  EXPECT_EQ(detail::kSeriesGuardThresholdSq,
            detail::kSeriesGuardThreshold * detail::kSeriesGuardThreshold);
}

TEST(SeriesGuardSeam, SinhcContinuousAcrossGuard) {
  // Just inside the guard the Taylor series runs; just outside, libm's
  // sinh(x)/x.  Series truncation at |x| = 1e-4 is ~1e-28, so both
  // branches must sit within ~1e-12 of sinh(x)/x.
  const double t = detail::kSeriesGuardThreshold;
  for (double phase : {0.0, 0.7, 1.9, 3.1, 4.4, 5.8}) {
    const cplx dir = std::polar(1.0, phase);
    for (double mag : {t * (1.0 - 1e-9), t * (1.0 + 1e-9)}) {
      const cplx x = mag * dir;
      EXPECT_NEAR(std::abs(detail::sinhc(x) - std::sinh(x) / x), 0.0, 2e-12);
    }
  }
}

TEST(SeriesGuardSeam, ScalarAndBatchAgreeAcrossGuardBoundary) {
  // Line sized so |theta h| sweeps through the guard threshold as |s|
  // varies: theta h ~ sqrt(r c s) h = 1e-6 sqrt(s), so the seam sits at
  // s ~ 1e4.  Scan two decades around it on both axes.
  const LineParams line{1.0e4, 1.0e-9, 1.0e-10};
  const double h = 1.0e-3;
  const DriverLoad dl{120.0, 3.0e-15, 8.0e-15};

  BatchTransferEvaluator batch(line, h, dl, rlc::simd::Level::kScalar);

  std::vector<double> sre, sim;
  for (double mag = 1.0e3; mag <= 1.0e5; mag *= 1.3) {
    sre.push_back(mag);
    sim.push_back(0.25 * mag);
  }
  std::vector<double> hre(sre.size()), him(sre.size());
  batch.transfer(sre.data(), sim.data(), hre.data(), him.data(), sre.size());
  for (std::size_t i = 0; i < sre.size(); ++i) {
    const cplx ref =
        rlc::tline::exact_transfer_dc_safe(line, h, dl, cplx(sre[i], sim[i]));
    const cplx got(hre[i], him[i]);
    EXPECT_LE(std::abs(got - ref), 1e-12 * std::abs(ref))
        << "s = (" << sre[i] << ", " << sim[i] << ")";
  }
}

}  // namespace

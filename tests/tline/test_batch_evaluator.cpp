#include "rlc/tline/batch_evaluator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <random>
#include <vector>

#include "rlc/base/simd.hpp"
#include "rlc/core/technology.hpp"
#include "rlc/tline/transfer.hpp"

namespace rlc::tline {
namespace {

using cplx = std::complex<double>;

struct Case {
  LineParams line;
  double h;
  DriverLoad dl;
};

Case paper_case(double l) {
  const auto tech = rlc::core::Technology::nm250();
  Case c;
  c.line = tech.line(l);
  c.h = 0.0144;
  c.dl = tech.rep.scaled(578.0);
  return c;
}

/// Max relative disagreement between the batch output and a per-point
/// reference, with the overflow-saturation contract folded in: lanes where
/// the reference collapsed to ~0 (|ref| below tiny) must also be ~0 in the
/// batch output, rather than contributing a meaningless relative error.
double max_rel_err(const std::vector<cplx>& ref, const std::vector<double>& hr,
                   const std::vector<double>& hi) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double rm = std::abs(ref[i]);
    const double gm = std::hypot(hr[i], hi[i]);
    EXPECT_TRUE(std::isfinite(gm)) << "batch lane " << i << " not finite";
    if (!std::isfinite(rm) || rm < 1e-280) {
      EXPECT_LT(gm, 1e-280) << "lane " << i << ": ref saturated, batch not";
      continue;
    }
    worst = std::max(worst, std::abs(cplx{hr[i], hi[i]} - ref[i]) / rm);
  }
  return worst;
}

TEST(BatchTransferEvaluator, MatchesPerPointEvaluatorOnContourNodes) {
  // Talbot-contour-shaped probe sets (the real workload): nodes along the
  // cotangent contour for a spread of anchor times, all three inductance
  // regimes.  Scalar batch vs per-point exact_transfer_dc_safe must agree
  // to 1e-12.
  std::mt19937_64 rng(7);
  for (double l : {0.0, 1e-6, 5e-6}) {
    const Case c = paper_case(l);
    const BatchTransferEvaluator batch(c.line, c.h, c.dl,
                                       simd::Level::kScalar);
    std::vector<double> sr, si;
    std::uniform_real_distribution<double> scale(8.0, 13.0);
    for (int contour = 0; contour < 12; ++contour) {
      const double r = std::pow(10.0, scale(rng));  // contour radius ~ 1/t
      for (int k = 0; k < 48; ++k) {
        const double theta = (k + 0.5) * M_PI / 48.0 - M_PI / 2.0;
        // r * theta * cot(theta) + i * r * theta, the fixed-Talbot node.
        const double tc = theta == 0.0 ? 1.0 : theta / std::tan(theta);
        sr.push_back(r * tc);
        si.push_back(r * theta);
      }
    }
    std::vector<cplx> ref(sr.size());
    for (std::size_t i = 0; i < sr.size(); ++i) {
      ref[i] = exact_transfer_dc_safe(c.line, c.h, c.dl, cplx{sr[i], si[i]});
    }
    std::vector<double> hr(sr.size()), hi(sr.size());
    batch.transfer(sr.data(), si.data(), hr.data(), hi.data(), sr.size());
    EXPECT_LT(max_rel_err(ref, hr, hi), 1e-12) << "l = " << l;
    EXPECT_EQ(batch.evaluations(), sr.size());
    EXPECT_EQ(batch.passes(), 1u);
  }
}

TEST(BatchTransferEvaluator, SimdLevelAgreesWithScalarLevel) {
  if (simd::detected_level() != simd::Level::kAvx2) {
    GTEST_SKIP() << "host has no AVX2; nothing to cross-check";
  }
  // Property-based sweep: random lines, random drivers, random nodes.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const auto tech = rlc::core::Technology::nm250();
  for (int trial = 0; trial < 20; ++trial) {
    Case c = paper_case(5e-6 * u(rng));
    c.h *= 0.25 + 2.0 * u(rng);
    c.dl = tech.rep.scaled(100.0 + 900.0 * u(rng));
    const BatchTransferEvaluator scalar(c.line, c.h, c.dl,
                                        simd::Level::kScalar);
    const BatchTransferEvaluator vector(c.line, c.h, c.dl,
                                        simd::Level::kAvx2);
    ASSERT_EQ(vector.level(), simd::Level::kAvx2);
    std::vector<double> sr(301), si(301);
    for (std::size_t i = 0; i < sr.size(); ++i) {
      const double mag = std::pow(10.0, 6.0 + 7.0 * u(rng));
      const double ang = M_PI * (u(rng) - 0.5);
      sr[i] = mag * std::cos(ang);
      si[i] = mag * std::sin(ang);
    }
    std::vector<double> ar(sr.size()), ai(sr.size());
    std::vector<double> br(sr.size()), bi(sr.size());
    scalar.step(sr.data(), si.data(), ar.data(), ai.data(), sr.size());
    vector.step(sr.data(), si.data(), br.data(), bi.data(), sr.size());
    for (std::size_t i = 0; i < sr.size(); ++i) {
      const double rm = std::hypot(ar[i], ai[i]);
      if (rm < 1e-280) {
        EXPECT_LT(std::hypot(br[i], bi[i]), 1e-280) << "trial " << trial;
        continue;
      }
      EXPECT_NEAR(br[i], ar[i], 1e-12 * rm) << "trial " << trial;
      EXPECT_NEAR(bi[i], ai[i], 1e-12 * rm) << "trial " << trial;
    }
  }
}

TEST(BatchTransferEvaluator, SeriesGuardIsSeamlessThroughThetaZero) {
  // |theta h| -> 0: the cosh/sinhc series guard must hand over to the
  // exp-based form with no jump, including exactly at the near-DC node.
  const Case c = paper_case(1e-6);
  const BatchTransferEvaluator batch(c.line, c.h, c.dl, simd::Level::kScalar);
  std::vector<double> sr, si;
  // Sweep |s| across the guard threshold (|theta h| = 1e-4 maps to some
  // |s| for this line; bracket it by orders of magnitude on both sides).
  for (int e = -6; e <= 10; ++e) {
    const double mag = std::pow(10.0, e);
    sr.push_back(mag);
    si.push_back(0.0);
    sr.push_back(0.0);
    si.push_back(mag);
    sr.push_back(mag * 0.6);
    si.push_back(-mag * 0.8);
  }
  std::vector<cplx> ref(sr.size());
  for (std::size_t i = 0; i < sr.size(); ++i) {
    ref[i] = exact_transfer_dc_safe(c.line, c.h, c.dl, cplx{sr[i], si[i]});
  }
  std::vector<double> hr(sr.size()), hi(sr.size());
  batch.transfer(sr.data(), si.data(), hr.data(), hi.data(), sr.size());
  EXPECT_LT(max_rel_err(ref, hr, hi), 1e-12);
}

TEST(BatchTransferEvaluator, DenormalAndHugeNodesStayFinite) {
  // Denormal |s| must behave like DC (H -> 1); huge |s| lanes where
  // exp(theta h) or the denominator overflows must saturate to exactly 0
  // (the per-point path reaches ~0 through IEEE inf arithmetic).
  const Case c = paper_case(1e-6);
  for (simd::Level level :
       {simd::Level::kScalar, simd::detected_level()}) {
    const BatchTransferEvaluator batch(c.line, c.h, c.dl, level);
    const std::vector<double> sr = {
        std::numeric_limits<double>::denorm_min(), 1e-300, 0.0,
        -3.4e13, 1e15, 1e18};
    const std::vector<double> si = {0.0, 1e-300, 4.9e-324,
                                    2.2e12, -1e15, 1e18};
    std::vector<double> hr(sr.size()), hi(sr.size());
    batch.transfer(sr.data(), si.data(), hr.data(), hi.data(), sr.size());
    for (std::size_t i = 0; i < sr.size(); ++i) {
      EXPECT_TRUE(std::isfinite(hr[i]) && std::isfinite(hi[i]))
          << "lane " << i << " at level " << simd::level_name(level);
      const cplx ref =
          exact_transfer_dc_safe(c.line, c.h, c.dl, cplx{sr[i], si[i]});
      const double rm = std::abs(ref);
      const double gm = std::hypot(hr[i], hi[i]);
      if (!std::isfinite(rm) || rm < 1e-280) {
        EXPECT_LT(gm, 1e-280) << "lane " << i;
      } else {
        EXPECT_NEAR(gm, rm, 1e-12 * rm) << "lane " << i;
      }
    }
  }
}

TEST(BatchTransferEvaluator, SinglePointOverloadsMatchSpans) {
  const Case c = paper_case(2e-6);
  const BatchTransferEvaluator batch(c.line, c.h, c.dl);
  const cplx s{1e8, 5e9};
  const double sr = s.real(), si = s.imag();
  double hr = 0.0, hi = 0.0;
  batch.transfer(&sr, &si, &hr, &hi, 1);
  EXPECT_EQ(batch.transfer(s), (cplx{hr, hi}));
  double fr = 0.0, fi = 0.0;
  batch.step(&sr, &si, &fr, &fi, 1);
  EXPECT_EQ(batch.step(s), (cplx{fr, fi}));
  // step = transfer / s, to roundoff of the two division orders.
  const cplx q = cplx{hr, hi} / s;
  EXPECT_NEAR(std::abs(cplx{fr, fi} - q), 0.0, 1e-14 * std::abs(q));
}

TEST(BatchTransferEvaluator, ValidatesTheLine) {
  Case c = paper_case(1e-6);
  c.line.r = -1.0;
  EXPECT_THROW(BatchTransferEvaluator(c.line, c.h, c.dl), std::domain_error);
}

TEST(BatchTransferEvaluator, BlockBoundariesAreInvisible) {
  // Spans longer than the internal block size must give identical results
  // to evaluating the same nodes in separate short calls.  Pinned at the
  // scalar level: the vector level's sub-width tail lanes legitimately go
  // through a different (libm) code path, so bit-identity only holds when
  // every lane uses the same kernel.
  const Case c = paper_case(1e-6);
  const BatchTransferEvaluator batch(c.line, c.h, c.dl, simd::Level::kScalar);
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> u(8.0, 12.0);
  const std::size_t n = 3 * 128 + 17;  // crosses several kBlock boundaries
  std::vector<double> sr(n), si(n);
  for (std::size_t i = 0; i < n; ++i) {
    sr[i] = std::pow(10.0, u(rng));
    si[i] = std::pow(10.0, u(rng));
  }
  std::vector<double> ar(n), ai(n), br(n), bi(n);
  batch.transfer(sr.data(), si.data(), ar.data(), ai.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.transfer(&sr[i], &si[i], &br[i], &bi[i], 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ar[i], br[i]) << i;
    EXPECT_EQ(ai[i], bi[i]) << i;
  }
}

}  // namespace
}  // namespace rlc::tline

#include "rlc/core/pade.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "rlc/tline/transfer.hpp"
#include "support/derivative.hpp"

namespace rlc::core {
namespace {

TEST(Pade, HandComputedCoefficientsNoDriver) {
  // Negligible driver/load: b1 = r c h^2/2, b2 = l c h^2/2 + (r c h^2)^2/24.
  const tline::LineParams line{100.0, 1e-7, 1e-10};
  const double h = 0.01;
  const tline::DriverLoad dl{1e-9, 1e-21, 1e-21};  // effectively absent
  const auto pc = pade_coeffs(line, h, dl);
  const double rch2 = 100.0 * 1e-10 * h * h;
  EXPECT_NEAR(pc.b1, rch2 / 2.0, 1e-6 * rch2);
  const double b2_expect = 1e-7 * 1e-10 * h * h / 2.0 + rch2 * rch2 / 24.0;
  EXPECT_NEAR(pc.b2, b2_expect, 1e-6 * b2_expect);
}

TEST(Pade, MatchesExactTransferTaylorMoments) {
  // H_exact(s) = 1 - b1 s + (b1^2 - b2) s^2 + O(s^3): recover the moments by
  // finite differences of the exact transfer function at s = 0 and compare
  // with the closed-form coefficients (this validates the Eq. 2 expansion
  // against the Eq. 1 transfer function, the paper's own derivation).
  const auto tech = Technology::nm250();
  const double h = 0.0144, k = 578.0;
  const auto line = tech.line(1e-6);
  const auto dl = tech.rep.scaled(k);
  const auto pc = pade_coeffs(line, h, dl);

  const double s0 = 1.0 / pc.b1;  // natural frequency scale
  const auto H = [&](double x) {
    return tline::exact_transfer_dc_safe(line, h, dl, {x, 0.0}).real();
  };
  const double ds = 1e-3 * s0;
  const double m1 = (H(ds) - H(-ds)) / (2.0 * ds);               // -b1
  const double m2 = (H(ds) - 2.0 * H(0.0) + H(-ds)) / (ds * ds); // 2(b1^2-b2)
  EXPECT_NEAR(m1, -pc.b1, 1e-5 * pc.b1);
  EXPECT_NEAR(0.5 * m2, pc.b1 * pc.b1 - pc.b2,
              1e-4 * std::abs(pc.b1 * pc.b1 - pc.b2));
}

TEST(Pade, TransferEvaluation) {
  const PadeCoeffs pc{1e-10, 1e-21};
  const auto h0 = pade_transfer(pc, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(h0.real(), 1.0);
  const auto h1 = pade_transfer(pc, {0.0, 1e10});
  EXPECT_LT(std::abs(h1), 1.0);
}

TEST(Pade, InputValidation) {
  const tline::LineParams line{100.0, 1e-7, 1e-10};
  EXPECT_THROW(pade_coeffs(line, 0.0, {}), std::domain_error);
  EXPECT_THROW(pade_coeffs({0.0, 1e-7, 1e-10}, 1.0, {}), std::domain_error);
  const Repeater rep{1e3, 1e-15, 1e-15};
  EXPECT_THROW(pade_derivs_hk(rep, line, 0.01, 0.0), std::domain_error);
}

// ---- Analytic derivative verification (property-style sweep). ----

using DerivCase = std::tuple<double, double, double>;  // (l, h, k)

class PadeDerivSweep : public ::testing::TestWithParam<DerivCase> {};

TEST_P(PadeDerivSweep, AnalyticDerivativesMatchFiniteDifferences) {
  const auto [l, h, k] = GetParam();
  const auto tech = Technology::nm100();
  const auto line = tech.line(l);
  const auto d = pade_derivs_hk(tech.rep, line, h, k);

  const auto b1_of_h = [&](double hh) {
    return pade_coeffs_hk(tech.rep, line, hh, k).b1;
  };
  const auto b2_of_h = [&](double hh) {
    return pade_coeffs_hk(tech.rep, line, hh, k).b2;
  };
  const auto b1_of_k = [&](double kk) {
    return pade_coeffs_hk(tech.rep, line, h, kk).b1;
  };
  const auto b2_of_k = [&](double kk) {
    return pade_coeffs_hk(tech.rep, line, h, kk).b2;
  };
  const double fd_b1h = rlc::testing::richardson_diff(b1_of_h, h);
  const double fd_b2h = rlc::testing::richardson_diff(b2_of_h, h);
  const double fd_b1k = rlc::testing::richardson_diff(b1_of_k, k);
  const double fd_b2k = rlc::testing::richardson_diff(b2_of_k, k);
  EXPECT_NEAR(d.db1_dh, fd_b1h, 1e-6 * std::abs(fd_b1h));
  EXPECT_NEAR(d.db2_dh, fd_b2h, 1e-6 * std::abs(fd_b2h));
  EXPECT_NEAR(d.db1_dk, fd_b1k, 1e-5 * std::abs(fd_b1k) + 1e-30);
  EXPECT_NEAR(d.db2_dk, fd_b2k, 1e-5 * std::abs(fd_b2k) + 1e-40);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PadeDerivSweep,
    ::testing::Combine(::testing::Values(0.0, 5e-7, 2e-6, 5e-6),   // l [H/m]
                       ::testing::Values(0.004, 0.011, 0.02),      // h [m]
                       ::testing::Values(50.0, 300.0, 800.0)));    // k

TEST(Pade, B1IndependentOfInductance) {
  // Eq. (2): b1 carries no l term — the reason the Kahng-Muddu critically
  // damped approximation cannot see inductance (Section 2.1).
  const auto tech = Technology::nm250();
  const auto a = pade_coeffs_hk(tech.rep, tech.line(0.0), 0.01, 300.0);
  const auto b = pade_coeffs_hk(tech.rep, tech.line(5e-6), 0.01, 300.0);
  EXPECT_DOUBLE_EQ(a.b1, b.b1);
  EXPECT_GT(b.b2, a.b2);
}

TEST(Pade, B2LinearInInductance) {
  const auto tech = Technology::nm250();
  const double h = 0.012, k = 400.0;
  const auto c0 = pade_coeffs_hk(tech.rep, tech.line(0.0), h, k);
  const auto c1 = pade_coeffs_hk(tech.rep, tech.line(1e-6), h, k);
  const auto c2 = pade_coeffs_hk(tech.rep, tech.line(2e-6), h, k);
  EXPECT_NEAR(c2.b2 - c1.b2, c1.b2 - c0.b2, 1e-9 * c2.b2);
}

}  // namespace
}  // namespace rlc::core

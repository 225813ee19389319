#include "rlc/core/delay.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../../src/core/src/status_boundary.hpp"
#include "rlc/base/status.hpp"
#include "rlc/core/optimizer.hpp"
#include "rlc/core/technology.hpp"

namespace rlc::core {
namespace {

TEST(Delay, CriticallyDampedAgainstClosedFormRoot) {
  // v(t) = 1 - (1 + a t) e^{-a t} = 0.5  =>  a t ~ 1.67835 (standard root).
  const double b1 = 2e-10;
  const TwoPole sys(PadeCoeffs{b1, b1 * b1 / 4.0});
  const auto r = threshold_delay(sys);
  ASSERT_TRUE(r.converged);
  const double alpha = 2.0 / b1;
  EXPECT_NEAR(alpha * r.tau, 1.6783469900166605, 1e-8);
}

TEST(Delay, ResidualIsZeroAtSolution) {
  const TwoPole sys(PadeCoeffs{3e-10, 1.5e-20});
  DelayOptions opts;
  opts.f = 0.7;
  const auto r = threshold_delay(sys, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(sys.step_response(r.tau), 0.7, 1e-10);
}

TEST(Delay, UnderdampedTakesFirstCrossing) {
  // Strongly underdamped: v(t) crosses f many times; the delay must be the
  // FIRST crossing, which is earlier than b1-based estimates.
  const TwoPole sys(PadeCoeffs{0.2e-10, 1e-20});
  const auto r = threshold_delay(sys);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(sys.step_response(r.tau), 0.5, 1e-10);
  // No earlier crossing: v(t) < f strictly before tau.
  for (int i = 1; i < 100; ++i) {
    const double t = r.tau * i / 100.0;
    EXPECT_LT(sys.step_response(t), 0.5);
  }
}

TEST(Delay, MonotoneInThreshold) {
  const TwoPole sys(PadeCoeffs{3e-10, 1.2e-20});
  double prev = 0.0;
  for (double f : {0.1, 0.3, 0.5, 0.63, 0.8, 0.9}) {
    DelayOptions opts;
    opts.f = f;
    const auto r = threshold_delay(sys, opts);
    ASSERT_TRUE(r.converged) << f;
    EXPECT_GT(r.tau, prev);
    prev = r.tau;
  }
}

TEST(Delay, InvalidThresholdThrows) {
  const TwoPole sys(PadeCoeffs{3e-10, 1e-20});
  DelayOptions opts;
  opts.f = 0.0;
  EXPECT_THROW(threshold_delay(sys, opts), std::domain_error);
  opts.f = 1.0;
  EXPECT_THROW(threshold_delay(sys, opts), std::domain_error);
}

TEST(Delay, FewNewtonIterations) {
  // The paper: "convergence is achieved in less than four iterations in all
  // cases" for Eq. (3).  Our safeguarded Newton includes the bracketing
  // prelude; the polish itself must stay in the same ballpark.
  const auto tech = Technology::nm100();
  for (double l : {0.0, 1e-6, 3e-6, 5e-6}) {
    const auto r = segment_delay(tech.rep, tech.line(l), 0.011, 500.0);
    ASSERT_TRUE(r.converged) << l;
    EXPECT_LE(r.newton_iterations, 60) << l;
  }
}

TEST(Delay, Delay50Convenience) {
  const TwoPole sys(PadeCoeffs{3e-10, 1e-20});
  EXPECT_NEAR(sys.step_response(delay_50(sys)), 0.5, 1e-10);
}

TEST(Delay, UnbracketedSolveThrowsTypedNoConvergence) {
  // A segment so long that its Pade time constants overflow: the crossing
  // can never be bracketed.  The failure is the typed numeric error, and
  // the checked boundary reports it as no_convergence, not internal.
  const auto tech = Technology::nm100();
  const auto line = tech.line(1e-6);
  EXPECT_THROW(delay_per_length(tech.rep, line, 1e100, 100.0),
               rlc::NoConvergenceError);
  EXPECT_THROW(delay_50(TwoPole(pade_coeffs_hk(tech.rep, line, 1e100, 100.0))),
               rlc::NoConvergenceError);
  const auto r = internal::at_boundary<double>([&]() -> rlc::StatusOr<double> {
    return delay_per_length(tech.rep, line, 1e100, 100.0);
  });
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), rlc::StatusCode::kNoConvergence);
  EXPECT_EQ(r.status().message(), "delay_per_length: delay solve failed");
}

TEST(Delay, IncreasesWithInductanceAtFixedSizing) {
  // At the RC-optimal sizing, adding inductance slows the segment (the
  // premise of Figure 8).
  const auto tech = Technology::nm100();
  double prev = 0.0;
  for (double l : {0.0, 1e-6, 2e-6, 4e-6}) {
    const auto r = segment_delay(tech.rep, tech.line(l), 0.0111, 528.0);
    ASSERT_TRUE(r.converged);
    EXPECT_GT(r.tau, prev);
    prev = r.tau;
  }
}

// Property sweep across damping regimes: delay solve always converges and
// lands exactly on the threshold.
class DelaySweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DelaySweep, ConvergesAndSatisfiesEquation) {
  const auto [b2_over_crit, f] = GetParam();
  const double b1 = 2.5e-10;
  const PadeCoeffs pc{b1, b2_over_crit * b1 * b1 / 4.0};
  const TwoPole sys(pc);
  DelayOptions opts;
  opts.f = f;
  const auto r = threshold_delay(sys, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(sys.step_response(r.tau), f, 1e-7);
  EXPECT_GT(r.tau, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    DampingAndThreshold, DelaySweep,
    ::testing::Combine(
        ::testing::Values(0.05, 0.5, 0.999, 1.0, 1.001, 2.0, 20.0),
        ::testing::Values(0.1, 0.5, 0.9)));

}  // namespace
}  // namespace rlc::core

// The Euler (Abate-Whitt) inverter: accuracy on known transforms —
// including the oscillatory ones the fixed-Talbot contour cannot handle —
// plus vector-of-times/per-t equivalence and argument validation.  The
// inverter takes span-of-nodes evaluators; span_of adapts the per-point
// closed forms below.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "rlc/laplace/euler.hpp"
#include "rlc/laplace/talbot.hpp"
#include "support/span_of.hpp"

namespace {

using cplx = std::complex<double>;
using rlc::laplace::euler_invert;
using rlc::laplace::EulerOptions;
using rlc::laplace::LaplaceFnRef;
using rlc::testing::span_of;

TEST(EulerInvert, StepAndExponential) {
  const auto step = [](cplx s) { return 1.0 / s; };
  const auto decay = [](cplx s) { return 1.0 / (s + 2.0); };
  for (double t : {0.1, 1.0, 5.0}) {
    EXPECT_NEAR(euler_invert(span_of(step), t), 1.0, 1e-7) << t;
    EXPECT_NEAR(euler_invert(span_of(decay), t), std::exp(-2.0 * t),
                1e-7)
        << t;
  }
}

TEST(EulerInvert, PureOscillationOverManyPeriods) {
  // sin(t) and cos(t): poles ON the imaginary axis.  The vertical Bromwich
  // contour handles them; this is the regime where fixed Talbot fails.
  const auto sine = [](cplx s) { return 1.0 / (s * s + 1.0); };
  const auto cosine = [](cplx s) { return s / (s * s + 1.0); };
  for (double t = 0.5; t < 25.0; t *= 1.7) {
    EXPECT_NEAR(euler_invert(span_of(sine), t), std::sin(t), 1e-6) << t;
    EXPECT_NEAR(euler_invert(span_of(cosine), t), std::cos(t), 1e-6)
        << t;
  }
}

TEST(EulerInvert, DampedOscillationBeatsFixedTalbot) {
  // e^{-t/4} cos(4t): the underdamped-RLC shape.  Euler stays at ~1e-7
  // while fixed Talbot drifts to ~1e-2 after a few periods.
  const auto f = [](cplx s) {
    const cplx sh = s + 0.25;
    return sh / (sh * sh + 16.0);
  };
  const double t = 7.0;  // ~4.5 periods in
  const double exact = std::exp(-t / 4.0) * std::cos(4.0 * t);
  EXPECT_NEAR(euler_invert(span_of(f), t), exact, 1e-6);
  const double talbot_err =
      std::abs(rlc::laplace::talbot_invert(LaplaceFnRef(f), t) - exact);
  const double euler_err =
      std::abs(euler_invert(span_of(f), t) - exact);
  EXPECT_LT(euler_err, 1e-3 * talbot_err);
}

TEST(EulerInvert, BatchMatchesPerPointBitExactly) {
  // The vector-of-times overload equals the per-t overload, bit for bit.
  const auto f = [](cplx s) {
    const cplx sh = s + 0.5;
    return sh / (sh * sh + 9.0);
  };
  std::vector<double> times;
  for (double t = 0.2; t < 12.0; t *= 1.4) times.push_back(t);
  const auto batch = euler_invert(span_of(f), times);
  ASSERT_EQ(batch.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(batch[i], euler_invert(span_of(f), times[i])) << i;
  }
}

TEST(EulerInvert, OptionsTradeAccuracy) {
  const auto sine = [](cplx s) { return 1.0 / (s * s + 1.0); };
  EulerOptions coarse;
  coarse.burn_in = 8;
  coarse.terms = 6;
  coarse.decay = 9.0;
  const double t = 11.0;
  const double err_coarse =
      std::abs(euler_invert(span_of(sine), t, coarse) - std::sin(t));
  const double err_default =
      std::abs(euler_invert(span_of(sine), t) - std::sin(t));
  EXPECT_LT(err_default, err_coarse);
  EXPECT_EQ(rlc::laplace::euler_nodes(coarse), 15);
  EXPECT_EQ(rlc::laplace::euler_nodes(EulerOptions{}), 47);
}

TEST(EulerInvert, RejectsBadArguments) {
  const auto step = [](cplx s) { return 1.0 / s; };
  EXPECT_THROW(euler_invert(span_of(step), 0.0), std::invalid_argument);
  EXPECT_THROW(euler_invert(span_of(step), -1.0), std::invalid_argument);
  EulerOptions bad;
  bad.burn_in = 0;
  EXPECT_THROW(euler_invert(span_of(step), 1.0, bad),
               std::invalid_argument);
  bad = EulerOptions{};
  bad.terms = -1;
  EXPECT_THROW(euler_invert(span_of(step), 1.0, bad),
               std::invalid_argument);
  bad = EulerOptions{};
  bad.decay = 0.0;
  EXPECT_THROW(euler_invert(span_of(step), 1.0, bad),
               std::invalid_argument);
}

}  // namespace

#include "rlc/laplace/talbot.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "rlc/core/pade.hpp"
#include "rlc/core/two_pole.hpp"
#include "support/span_of.hpp"

namespace rlc::laplace {
namespace {

using cplx = std::complex<double>;
using rlc::testing::span_of;

TEST(Talbot, StepFunction) {
  // L^-1[1/s] = 1.
  const LaplaceFn F = [](cplx s) { return 1.0 / s; };
  for (double t : {0.1, 1.0, 10.0}) {
    EXPECT_NEAR(talbot_invert(F, t), 1.0, 1e-7) << t;
  }
}

TEST(Talbot, Exponential) {
  // L^-1[1/(s+a)] = exp(-a t).
  const double a = 3.0;
  const LaplaceFn F = [a](cplx s) { return 1.0 / (s + a); };
  for (double t : {0.05, 0.3, 1.0, 2.0}) {
    EXPECT_NEAR(talbot_invert(F, t), std::exp(-a * t), 1e-7) << t;
  }
}

TEST(Talbot, Ramp) {
  // L^-1[1/s^2] = t.
  const LaplaceFn F = [](cplx s) { return 1.0 / (s * s); };
  EXPECT_NEAR(talbot_invert(F, 2.5), 2.5, 1e-7);
}

TEST(Talbot, DampedOscillation) {
  // L^-1[w/((s+a)^2 + w^2)] = exp(-a t) sin(w t).
  const double a = 0.5, w = 4.0;
  const LaplaceFn F = [=](cplx s) { return w / ((s + a) * (s + a) + w * w); };
  for (double t : {0.2, 0.7, 1.9, 3.0}) {
    EXPECT_NEAR(talbot_invert(F, t, 64), std::exp(-a * t) * std::sin(w * t),
                2e-5) << t;
  }
}

TEST(Talbot, MatchesTwoPoleClosedFormStepResponse) {
  // The Pade step response has the closed form implemented in core::TwoPole;
  // inverting H(s)/s numerically must reproduce it.  Underdamped case.
  const rlc::core::PadeCoeffs pc{2e-10, 3e-20};  // disc = 4e-20 - 12e-20 < 0
  const rlc::core::TwoPole sys(pc);
  const LaplaceFn F = [&pc](cplx s) {
    return 1.0 / (s * (1.0 + s * pc.b1 + s * s * pc.b2));
  };
  for (double t : {1e-11, 1e-10, 3e-10, 1e-9}) {
    EXPECT_NEAR(talbot_invert(F, t, 64), sys.step_response(t), 2e-5) << t;
  }
}

TEST(Talbot, MatchesTwoPoleOverdamped) {
  const rlc::core::PadeCoeffs pc{5e-10, 1e-20};  // disc > 0
  const rlc::core::TwoPole sys(pc);
  const LaplaceFn F = [&pc](cplx s) {
    return 1.0 / (s * (1.0 + s * pc.b1 + s * s * pc.b2));
  };
  for (double t : {1e-11, 2e-10, 1e-9, 4e-9}) {
    EXPECT_NEAR(talbot_invert(F, t, 64), sys.step_response(t), 2e-5) << t;
  }
}

TEST(Talbot, VectorOverload) {
  const LaplaceFn F = [](cplx s) { return 1.0 / (s + 1.0); };
  const auto v = talbot_invert(F, std::vector<double>{0.5, 1.0}, 48);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NEAR(v[0], std::exp(-0.5), 1e-7);
  EXPECT_NEAR(v[1], std::exp(-1.0), 1e-7);
}

TEST(Talbot, InputValidation) {
  const LaplaceFn F = [](cplx s) { return 1.0 / s; };
  EXPECT_THROW(talbot_invert(F, 0.0), std::invalid_argument);
  EXPECT_THROW(talbot_invert(F, -1.0), std::invalid_argument);
  EXPECT_THROW(talbot_invert(F, 1.0, 2), std::invalid_argument);
}

// ---- Shared-contour window inversion (TalbotContour). ----

TEST(TalbotWindow, MatchesPerTInversionAcrossTheWindow) {
  // One contour fixed at t_max must reproduce the per-t inversion for every
  // time in [t_max/lambda, t_max], including the window foot.
  const double a = 3.0;
  const auto F = [a](cplx s) { return 1.0 / (s * (s + a)) * a; };
  const double t_max = 2.0, lambda = 4.0;
  std::vector<double> times;
  for (int i = 0; i <= 16; ++i) {
    times.push_back(t_max / lambda * std::pow(lambda, i / 16.0));
  }
  const auto windowed =
      talbot_invert_window(span_of(F), times, t_max, 48, lambda);
  ASSERT_EQ(windowed.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double exact = 1.0 - std::exp(-a * times[i]);
    EXPECT_NEAR(windowed[i], exact, 1e-6) << "t = " << times[i];
    EXPECT_NEAR(windowed[i], talbot_invert(F, times[i], 48), 1e-6)
        << "t = " << times[i];
  }
}

TEST(TalbotWindow, ContourCountsCostAndEvaluates) {
  // Construction samples F exactly M times; eval() afterwards is free of
  // further transfer evaluations.
  int calls = 0;
  const auto F = [&calls](cplx s) {
    ++calls;
    return 1.0 / (s + 1.0);
  };
  const TalbotContour contour(span_of(F), 1.0, 32);
  EXPECT_EQ(calls, 32);
  EXPECT_EQ(contour.points(), 32);
  EXPECT_DOUBLE_EQ(contour.t_max(), 1.0);
  EXPECT_NEAR(contour.eval(1.0), std::exp(-1.0), 1e-7);
  EXPECT_NEAR(contour.eval(0.5), std::exp(-0.5), 1e-6);
  EXPECT_EQ(calls, 32);  // eval() reused the cached samples
}

TEST(TalbotWindow, FootAccuracyDegradesGracefully) {
  // A lambda = 4 window stays usable from top to foot.  For a smooth pole
  // the whole window is near the double-precision saturation plateau (the
  // top, where exp(Re s * t) roundoff amplification is largest, is a few
  // 1e-9 at M = 48); an oscillatory F with poles off the negative real
  // axis is where the foot visibly degrades, yet stays within ~1e-5.
  const auto F = [](cplx s) { return 1.0 / (s + 1.0); };
  const TalbotContour contour(span_of(F), 4.0, 48);
  const double err_top = std::abs(contour.eval(4.0) - std::exp(-4.0));
  const double err_foot = std::abs(contour.eval(1.0) - std::exp(-1.0));
  EXPECT_LT(err_top, 2e-8);
  EXPECT_LT(err_foot, 1e-5);

  // Fast damped sine: f(t) = e^{-t} sin(15t), poles at -1 +/- 15i, i.e.
  // far off the negative real axis relative to the contour radius.  This
  // is the regime where sharing a contour costs accuracy: the anchor time
  // converges while the foot visibly degrades.
  const auto G = [](cplx s) {
    return 15.0 / ((s + 1.0) * (s + 1.0) + 225.0);
  };
  const auto g = [](double t) { return std::exp(-t) * std::sin(15.0 * t); };
  const TalbotContour osc(span_of(G), 4.0, 48);
  const double osc_top = std::abs(osc.eval(4.0) - g(4.0));
  const double osc_foot = std::abs(osc.eval(1.0) - g(1.0));
  EXPECT_LT(osc_top, 0.02);
  EXPECT_GT(osc_foot, 10.0 * osc_top);
}

// ---- SoA batch evaluator plumbing (BatchLaplaceFnRef overloads). ----

namespace {
/// Batch form of 1/(s + a), counting span calls and total nodes.
struct BatchPole {
  double a;
  int* calls;
  std::size_t* nodes;
  void operator()(const double* sr, const double* si, double* fr, double* fi,
                  std::size_t n) const {
    ++*calls;
    *nodes += n;
    for (std::size_t i = 0; i < n; ++i) {
      const cplx v = 1.0 / (cplx{sr[i], si[i]} + a);
      fr[i] = v.real();
      fi[i] = v.imag();
    }
  }
};
}  // namespace

TEST(TalbotBatch, InvertMatchesPerPoint) {
  // The batch overload feeds all M nodes to F in ONE span call and must
  // reproduce the per-point inversion.  Agreement is bounded by the
  // contour's own cancellation roundoff, not ulps: the sum cancels terms
  // of magnitude exp(2M/5) ~ 2e8 down to O(1), so independently rounded
  // exp evaluations legitimately differ at the ~1e-8 absolute level —
  // the same noise floor the inversion accuracy itself sits on.
  const double a = 3.0;
  int calls = 0;
  std::size_t nodes = 0;
  const BatchPole batch{a, &calls, &nodes};
  const auto point = [a](cplx s) { return 1.0 / (s + a); };
  for (double t : {0.05, 0.3, 1.0, 2.0}) {
    const double got = talbot_invert(BatchLaplaceFnRef(batch), t, 48);
    EXPECT_NEAR(got, std::exp(-a * t), 1e-7) << t;
    EXPECT_NEAR(got, talbot_invert(point, t, 48), 5e-8) << t;
  }
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(nodes, 4u * 48u);
}

TEST(TalbotBatch, ContourMatchesPerPointConstruction) {
  // A TalbotContour built from the batch evaluator carries the same cached
  // samples as one built from a per-point transform: eval() agrees
  // bit-for-bit across the whole window.
  const double a = 3.0;
  int calls = 0;
  std::size_t nodes = 0;
  const BatchPole batch{a, &calls, &nodes};
  const auto point = [a](cplx s) { return 1.0 / (s + a); };
  const TalbotContour from_batch(BatchLaplaceFnRef(batch), 2.0, 48);
  const TalbotContour from_point(span_of(point), 2.0, 48);
  EXPECT_EQ(calls, 1);       // one span call covers the whole contour
  EXPECT_EQ(nodes, 48u);
  for (double t : {0.5, 0.9, 1.4, 2.0}) {
    EXPECT_DOUBLE_EQ(from_batch.eval(t), from_point.eval(t)) << t;
    EXPECT_NEAR(from_batch.eval(t), std::exp(-a * t), 1e-6) << t;
  }
}

TEST(TalbotBatch, VectorTimesOverload) {
  int calls = 0;
  std::size_t nodes = 0;
  const BatchPole batch{1.0, &calls, &nodes};
  const auto v = talbot_invert(BatchLaplaceFnRef(batch),
                               std::vector<double>{0.5, 1.0}, 48);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_NEAR(v[0], std::exp(-0.5), 1e-7);
  EXPECT_NEAR(v[1], std::exp(-1.0), 1e-7);
}

TEST(TalbotWindow, RejectsTimesOutsideTheWindow) {
  const auto F = [](cplx s) { return 1.0 / s; };
  // lambda < 1 is rejected outright.
  const auto G = span_of(F);
  EXPECT_THROW(talbot_invert_window(G, {1.0}, 1.0, 48, 0.5),
               std::invalid_argument);
  // Times below t_max/lambda or above t_max are rejected, not silently
  // extrapolated into the inaccurate deep-foot regime.
  EXPECT_THROW(talbot_invert_window(G, {0.1}, 1.0, 48, 4.0),
               std::invalid_argument);
  EXPECT_THROW(talbot_invert_window(G, {1.5}, 1.0, 48, 4.0),
               std::invalid_argument);
  EXPECT_NO_THROW(talbot_invert_window(G, {0.25, 1.0}, 1.0, 48, 4.0));
  // TalbotContour itself enforces (0, t_max].
  const TalbotContour contour(G, 1.0, 32);
  EXPECT_THROW(contour.eval(0.0), std::invalid_argument);
  EXPECT_THROW(contour.eval(1.1), std::invalid_argument);
  EXPECT_THROW(TalbotContour(G, 0.0, 32), std::invalid_argument);
  EXPECT_THROW(TalbotContour(G, 1.0, 3), std::invalid_argument);
}

}  // namespace
}  // namespace rlc::laplace

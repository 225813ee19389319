// Noise-budgeted (h, k) optimization through core::optimize: an inactive
// budget degenerates to the unconstrained optimum, an active budget is met
// at the smallest delay cost, both technology nodes.

#include <gtest/gtest.h>

#include "rlc/core/optimize_api.hpp"
#include "rlc/core/technology.hpp"

namespace {

using rlc::StatusCode;
using rlc::core::optimize;
using rlc::core::optimize_rlc;
using rlc::core::OptimizeRequest;
using rlc::core::OptimizeResponse;
using rlc::core::OptimResult;
using rlc::core::Technology;

/// A 2-wire bus at l with coupling cc_ratio * c and km, under budget vmax.
OptimizeRequest coupling(const Technology& t, double l, double cc_ratio,
                         double km, double vmax) {
  OptimizeRequest req;
  req.l = l;
  req.conductors = 2;
  req.coupling_cc = cc_ratio * t.line(l).c;
  req.coupling_km = km;
  req.constraints.noise_vmax = vmax;
  return req;
}

OptimizeResponse solve_ok(const Technology& t, const OptimizeRequest& req) {
  const rlc::StatusOr<OptimizeResponse> r = optimize(t, req);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return r.is_ok() ? *r : OptimizeResponse{};
}

class NoiseOptimizer : public ::testing::TestWithParam<const char*> {
 protected:
  Technology tech() const {
    return std::string(GetParam()) == "250nm" ? Technology::nm250()
                                              : Technology::nm100();
  }
};

TEST_P(NoiseOptimizer, InactiveConstraintMatchesUnconstrained) {
  const Technology t = tech();
  const double l = 1.0e-6;
  const OptimizeRequest req =
      coupling(t, l, 0.25, 0.2, /*vmax=*/0.9);  // never binding
  const OptimizeResponse r = solve_ok(t, req);
  ASSERT_TRUE(r.has_noise);
  EXPECT_FALSE(r.noise_constraint_active);
  EXPECT_LE(r.peak_noise, req.constraints.noise_vmax);

  // Bitwise the unconstrained solve on the quiet-neighbour effective line,
  // and bitwise the same request without a budget.
  rlc::tline::LineParams eff = t.line(l);
  eff.c += req.coupling_cc;
  const OptimResult un = optimize_rlc(t.rep, eff, req.optim);
  ASSERT_TRUE(un.converged);
  EXPECT_EQ(r.sizing.h, un.h);
  EXPECT_EQ(r.sizing.k, un.k);
  EXPECT_EQ(r.sizing.delay_per_length, un.delay_per_length);
  OptimizeRequest free_req = req;
  free_req.constraints.noise_vmax = 0.0;
  const OptimizeResponse free_run = solve_ok(t, free_req);
  EXPECT_EQ(r.sizing.h, free_run.sizing.h);
  EXPECT_EQ(r.peak_noise, free_run.peak_noise);
  EXPECT_EQ(r.noise_width, free_run.noise_width);
}

TEST_P(NoiseOptimizer, ActiveConstraintMeetsTheBudget) {
  const Technology t = tech();
  const double l = 1.0e-6;
  const OptimizeResponse free_run =
      solve_ok(t, coupling(t, l, 0.3, 0.3, /*vmax=*/0.0));
  ASSERT_GT(free_run.peak_noise, 0.0);

  // Budget at 60% of the unconstrained noise forces the boundary.
  const OptimizeRequest req =
      coupling(t, l, 0.3, 0.3, 0.6 * free_run.peak_noise);
  const double vmax = req.constraints.noise_vmax;
  const OptimizeResponse r = solve_ok(t, req);
  EXPECT_TRUE(r.noise_constraint_active);
  EXPECT_LE(r.peak_noise, vmax * (1.0 + 1e-6));
  // The boundary solution sits on the budget, not far inside it.
  EXPECT_GT(r.peak_noise, 0.95 * vmax);
  // Constrained delay cannot beat the unconstrained optimum; the budget is
  // bought by upsizing the repeaters above the unconstrained size.
  EXPECT_GE(r.sizing.delay_per_length,
            free_run.sizing.delay_per_length * (1.0 - 1e-9));
  EXPECT_GT(r.sizing.k, free_run.sizing.k);
}

INSTANTIATE_TEST_SUITE_P(BothNodes, NoiseOptimizer,
                         ::testing::Values("250nm", "100nm"));

// At a threshold other than 50% the budgeted answer reports its delay at
// that threshold: a budget can only make the wire slower.
TEST(NoiseOptimizerThreshold, BudgetedDelayUsesTheRequestedThreshold) {
  const Technology t = Technology::nm100();
  OptimizeRequest req;
  req.l = 1.0e-6;
  req.conductors = 2;
  req.coupling_cc = 2.5e-11;
  req.coupling_km = 0.3;
  req.optim.f = 0.9;
  const OptimizeResponse free_run = solve_ok(t, req);
  ASSERT_GT(free_run.peak_noise, 0.2);

  req.constraints.noise_vmax = 0.2;
  const OptimizeResponse r = solve_ok(t, req);
  EXPECT_TRUE(r.noise_constraint_active);
  EXPECT_GE(r.sizing.delay_per_length, free_run.sizing.delay_per_length);
  EXPECT_LE(r.peak_noise, 0.2 * (1.0 + 1e-6));
  EXPECT_NEAR(r.sizing.delay_per_length, r.sizing.tau / r.sizing.h,
              1e-12 * r.sizing.delay_per_length);
}

// A feasible binding budget whose Brent root and nudge both land on the
// infeasible side (h_opt(k) jitter makes the boundary non-monotone near the
// root): the solve falls back to the smallest size it saw meet the budget.
TEST(NoiseOptimizerBoundary, FeasibleBudgetNearANonMonotoneRootIsMet) {
  const Technology t = Technology::nm100();
  OptimizeRequest req;
  req.l = 2.4360527640370116e-07;
  req.conductors = 2;
  req.coupling_cc = 4.333899869646209e-11;
  req.coupling_km = -0.950605629173436;
  req.constraints.noise_vmax = 0.3140295729200279;
  const OptimizeResponse r = solve_ok(t, req);
  EXPECT_TRUE(r.noise_constraint_active);
  EXPECT_LE(r.peak_noise, req.constraints.noise_vmax);
  EXPECT_GT(r.sizing.k, 0.0);
  EXPECT_GT(r.sizing.delay_per_length, 0.0);
}

TEST(NoiseOptimizerValidation, RejectsBadRequests) {
  const Technology t = Technology::nm250();
  const auto code = [&](const OptimizeRequest& req) {
    return optimize(t, req).status().code();
  };
  OptimizeRequest req = coupling(t, 1e-6, 0.3, 0.2, 0.1);
  req.conductors = 1;
  EXPECT_EQ(code(req), StatusCode::kInvalidArgument);
  req = coupling(t, 1e-6, 0.3, 0.2, 0.1);
  req.conductors = 9;
  EXPECT_EQ(code(req), StatusCode::kInvalidArgument);
  req = coupling(t, 1e-6, 0.3, 0.2, 0.1);
  req.coupling_cc = -1.0;
  EXPECT_EQ(code(req), StatusCode::kInvalidArgument);
  req = coupling(t, 1e-6, 0.3, 1.0, 0.1);
  EXPECT_EQ(code(req), StatusCode::kInvalidArgument);
  req = coupling(t, 1e-6, 0.3, -1.0, 0.1);
  EXPECT_EQ(code(req), StatusCode::kInvalidArgument);
}

}  // namespace

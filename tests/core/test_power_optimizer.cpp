#include "rlc/core/optimize_api.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "rlc/core/delay.hpp"
#include "rlc/core/power.hpp"

namespace rlc::core {
namespace {

constexpr double kL = 1.0e-6;  // 1 nH/mm
constexpr double kInf = std::numeric_limits<double>::infinity();

OptimizeRequest power_request(double eps) {
  OptimizeRequest req;
  req.objective = Objective::kPower;
  req.l = kL;
  req.constraints.delay_slack_eps = eps;
  return req;
}

/// Brute-force grid evaluation over the request's own domain.
struct Grid {
  std::vector<double> hg, kg;
  OptimResult un;
};

Grid make_grid(const Technology& tech, const OptimizeRequest& req) {
  Grid g;
  g.un = optimize_rlc(tech, req.l, req.optim);
  EXPECT_TRUE(g.un.converged);
  g.hg = log_grid(g.un.h, req.domain.h_min_scale, req.domain.h_max_scale,
                  req.domain.h_points);
  g.kg = log_grid(g.un.k, req.domain.k_min_scale, req.domain.k_max_scale,
                  req.domain.k_points);
  return g;
}

double grid_dpl(const Technology& tech, double h, double k, double f) {
  DelayOptions d;
  d.f = f;
  const DelayResult dr = segment_delay(tech.rep, tech.line(kL), h, k, d);
  return dr.converged ? dr.tau / h : kInf;
}

TEST(OptimizeApi, DelayObjectiveMatchesLegacyWrapperBitwise) {
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    OptimizeRequest req;
    req.l = kL;
    const auto resp = optimize(tech, req);
    ASSERT_TRUE(resp.is_ok()) << tech.name;
    const OptimResult direct = optimize_rlc(tech, kL);
    EXPECT_EQ(resp->sizing.h, direct.h) << tech.name;
    EXPECT_EQ(resp->sizing.k, direct.k) << tech.name;
    EXPECT_EQ(resp->sizing.tau, direct.tau) << tech.name;
    EXPECT_EQ(resp->sizing.delay_per_length, direct.delay_per_length);
    EXPECT_FALSE(resp->has_power);
    EXPECT_FALSE(resp->has_noise);
  }
}

TEST(OptimizeApi, ZeroSlackReturnsDelayOptimumBitwise) {
  const auto tech = Technology::nm100();
  const auto resp = optimize(tech, power_request(0.0));
  ASSERT_TRUE(resp.is_ok());
  const OptimResult un = optimize_rlc(tech, kL);
  EXPECT_EQ(resp->sizing.h, un.h);
  EXPECT_EQ(resp->sizing.k, un.k);
  EXPECT_EQ(resp->sizing.tau, un.tau);
  EXPECT_EQ(resp->sizing.delay_per_length, un.delay_per_length);
  EXPECT_TRUE(resp->delay_constraint_active);
  EXPECT_TRUE(resp->has_power);
  EXPECT_EQ(resp->power.total(), resp->power_ref);
  EXPECT_EQ(resp->delay_ref, un.delay_per_length);
}

TEST(OptimizeApi, InfiniteSlackIsTheMinimumPowerGridPointBitwise) {
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    const OptimizeRequest req = power_request(kInf);
    const auto resp = optimize(tech, req);
    ASSERT_TRUE(resp.is_ok()) << tech.name;
    const Grid g = make_grid(tech, req);
    // The unconstrained minimum is the (h_max, k_min) corner of the shared
    // log grid — same arithmetic, so bitwise equal.
    EXPECT_EQ(resp->sizing.h, g.hg.back()) << tech.name;
    EXPECT_EQ(resp->sizing.k, g.kg.front()) << tech.name;
    EXPECT_FALSE(resp->delay_constraint_active);
    // And it really is the cheapest grid point.
    double min_power = kInf;
    for (double k : g.kg) {
      for (double h : g.hg) {
        min_power = std::min(min_power, chain_power_per_length(tech, h, k));
      }
    }
    EXPECT_EQ(resp->power.total(), min_power) << tech.name;
  }
}

TEST(OptimizeApi, SlackConstraintIsMetAndBeatsTheGrid) {
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    for (const double eps : {0.05, 0.10}) {
      const OptimizeRequest req = power_request(eps);
      const auto resp = optimize(tech, req);
      ASSERT_TRUE(resp.is_ok()) << tech.name << " eps=" << eps;
      const double bound = (1.0 + eps) * resp->delay_ref;
      EXPECT_LE(resp->sizing.delay_per_length, bound * (1.0 + 1e-9));
      EXPECT_LT(resp->power.total(), resp->power_ref);
      EXPECT_TRUE(resp->delay_constraint_active);
      // Brute-force cross-check: the continuous boundary solve must do at
      // least as well as every feasible point of the shared grid.
      const Grid g = make_grid(tech, req);
      double grid_best = kInf;
      for (double k : g.kg) {
        for (double h : g.hg) {
          if (grid_dpl(tech, h, k, req.optim.f) > bound) continue;
          grid_best =
              std::min(grid_best, chain_power_per_length(tech, h, k));
        }
      }
      ASSERT_TRUE(std::isfinite(grid_best));
      EXPECT_LE(resp->power.total(), grid_best * (1.0 + 1e-12))
          << tech.name << " eps=" << eps;
    }
  }
}

TEST(OptimizeApi, PowerFallsMonotonicallyWithSlack) {
  const auto tech = Technology::nm100();
  double prev = kInf;
  for (const double eps : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    const auto resp = optimize(tech, power_request(eps));
    ASSERT_TRUE(resp.is_ok()) << eps;
    EXPECT_LE(resp->power.total(), prev * (1.0 + 1e-12)) << eps;
    prev = resp->power.total();
  }
}

TEST(OptimizeApi, ParetoFrontIsNonDominatedAndOrdered) {
  const auto tech = Technology::nm100();
  OptimizeRequest req = power_request(kInf);
  req.domain.h_points = 13;
  req.domain.k_points = 13;
  const auto front = pareto_front(tech, req);
  ASSERT_TRUE(front.is_ok());
  ASSERT_GE(front->size(), 3u);
  for (std::size_t i = 1; i < front->size(); ++i) {
    EXPECT_GT((*front)[i].delay_per_length, (*front)[i - 1].delay_per_length);
    EXPECT_LT((*front)[i].power_per_length, (*front)[i - 1].power_per_length);
  }
  // No point dominates another (quadratic check is fine at this size).
  for (const auto& a : *front) {
    for (const auto& b : *front) {
      if (&a == &b) continue;
      const bool a_dominates_b =
          a.delay_per_length <= b.delay_per_length &&
          a.power_per_length <= b.power_per_length &&
          (a.delay_per_length < b.delay_per_length ||
           a.power_per_length < b.power_per_length);
      EXPECT_FALSE(a_dominates_b) << "dominated point on front";
    }
  }
  // The frugal end is the eps = inf answer, bitwise.
  const auto resp = optimize(tech, req);
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(front->back().h, resp->sizing.h);
  EXPECT_EQ(front->back().k, resp->sizing.k);
  EXPECT_EQ(front->back().power_per_length, resp->power.total());
}

TEST(OptimizeApi, ParetoFrontIsThreadCountInvariant) {
  const auto tech = Technology::nm250();
  OptimizeRequest req = power_request(kInf);
  req.domain.h_points = 9;
  req.domain.k_points = 9;
  exec::ThreadPool pool1(1), pool3(3);
  const auto f1 = pareto_front(tech, req, &pool1);
  const auto f3 = pareto_front(tech, req, &pool3);
  ASSERT_TRUE(f1.is_ok());
  ASSERT_TRUE(f3.is_ok());
  ASSERT_EQ(f1->size(), f3->size());
  for (std::size_t i = 0; i < f1->size(); ++i) {
    EXPECT_EQ((*f1)[i].h, (*f3)[i].h);
    EXPECT_EQ((*f1)[i].k, (*f3)[i].k);
    EXPECT_EQ((*f1)[i].delay_per_length, (*f3)[i].delay_per_length);
    EXPECT_EQ((*f1)[i].power_per_length, (*f3)[i].power_per_length);
  }
}

TEST(OptimizeApi, RejectsInvalidRequestsWithTypedStatus) {
  const auto tech = Technology::nm100();
  {
    OptimizeRequest req = power_request(0.05);
    req.conductors = 2;
    req.coupling_cc = 1e-12;
    const auto resp = optimize(tech, req);
    ASSERT_FALSE(resp.is_ok());
    EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);
  }
  {
    OptimizeRequest req = power_request(-0.1);
    EXPECT_EQ(optimize(tech, req).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    OptimizeRequest req =
        power_request(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(optimize(tech, req).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    OptimizeRequest req = power_request(0.05);
    req.domain.h_points = 1;
    EXPECT_EQ(optimize(tech, req).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(pareto_front(tech, req).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    OptimizeRequest req = power_request(0.05);
    req.power.activity = 0.0;
    EXPECT_EQ(optimize(tech, req).status().code(),
              StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace rlc::core

/// End-to-end checks of the paper's quantitative claims (Section 3), at
/// reduced sweep resolution so they stay fast; the benches regenerate the
/// full figures.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <vector>

#include "rlc/core/elmore.hpp"
#include "rlc/core/lcrit.hpp"
#include "rlc/core/optimizer.hpp"

namespace {

using namespace rlc::core;

/// The serial warm-start continuation (the sweep's reference path).
const SweepOptions kSerial{.parallel = false};

std::vector<double> sweep_l(int n) {
  std::vector<double> ls;
  for (int i = 0; i <= n; ++i) ls.push_back(5e-6 * i / n);
  return ls;
}

TEST(PaperClaims, Figure7DelayRatioReachesPaperScale) {
  // 250 nm: ratio to the l=0 optimum reaches ~2x by l = 5 nH/mm;
  // 100 nm: grows much faster, reaching ~3-3.5x.
  const auto ls = sweep_l(10);
  const auto r250 = optimize_rlc_sweep(Technology::nm250(), ls, kSerial);
  const auto r100 = optimize_rlc_sweep(Technology::nm100(), ls, kSerial);
  ASSERT_TRUE(r250.front().converged && r250.back().converged);
  ASSERT_TRUE(r100.front().converged && r100.back().converged);
  const double ratio250 =
      r250.back().delay_per_length / r250.front().delay_per_length;
  const double ratio100 =
      r100.back().delay_per_length / r100.front().delay_per_length;
  EXPECT_GT(ratio250, 1.6);
  EXPECT_LT(ratio250, 2.6);
  EXPECT_GT(ratio100, 2.4);
  EXPECT_LT(ratio100, 4.2);
  EXPECT_GT(ratio100, ratio250);  // scaling makes it worse — the core claim
}

TEST(PaperClaims, Figure7ArtificialDielectricIsolatesDriverScaling) {
  // Even with the 250 nm wire capacitance, the 100 nm drivers make the node
  // more inductance-sensitive: "this increased susceptibility is entirely
  // due to scaling of driver capacitance and output resistance".
  const auto ls = sweep_l(8);
  const auto rctl = optimize_rlc_sweep(
      Technology::nm100_with_250nm_dielectric(), ls, kSerial);
  const auto r250 = optimize_rlc_sweep(Technology::nm250(), ls, kSerial);
  const double ratio_ctl =
      rctl.back().delay_per_length / rctl.front().delay_per_length;
  const double ratio250 =
      r250.back().delay_per_length / r250.front().delay_per_length;
  EXPECT_GT(ratio_ctl, ratio250);
}

TEST(PaperClaims, Figure8VariationPenaltyScalesWithNode) {
  // Sizing for RC and operating at inductance l costs ~6% (250 nm) /
  // ~12% (100 nm) extra delay versus re-optimizing — worst case over l.
  const auto ls = sweep_l(10);
  const auto penalty = [&](const Technology& tech) {
    const auto rc = rc_optimum(tech);
    const auto opt = optimize_rlc_sweep(tech, ls, kSerial);
    double worst = 0.0;
    for (std::size_t i = 0; i < ls.size(); ++i) {
      const double fixed =
          delay_per_length(tech.rep, tech.line(ls[i]), rc.h, rc.k);
      worst = std::max(worst, fixed / opt[i].delay_per_length - 1.0);
    }
    return worst;
  };
  const double p250 = penalty(Technology::nm250());
  const double p100 = penalty(Technology::nm100());
  EXPECT_GT(p100, p250);          // scaling worsens the variation exposure
  EXPECT_GT(p250, 0.02);          // noticeable even at 250 nm
  EXPECT_LT(p250, 0.15);
  EXPECT_GT(p100, 0.06);
  EXPECT_LT(p100, 0.30);
}

TEST(PaperClaims, Figure4LcritCurvesOrderAndGrowth) {
  // l_crit at the RLC optimum grows with l and the 100 nm curve sits below
  // the 250 nm curve everywhere (Figure 4).
  const auto ls = sweep_l(8);
  const auto r250 = optimize_rlc_sweep(Technology::nm250(), ls, kSerial);
  const auto r100 = optimize_rlc_sweep(Technology::nm100(), ls, kSerial);
  double prev250 = -1.0;
  for (std::size_t i = 0; i < ls.size(); ++i) {
    const double lc250 =
        critical_inductance(Technology::nm250(), r250[i].h, r250[i].k);
    const double lc100 =
        critical_inductance(Technology::nm100(), r100[i].h, r100[i].k);
    EXPECT_LT(lc100, lc250) << i;
    EXPECT_GT(lc250, prev250) << i;  // increases along the sweep
    prev250 = lc250;
    // Same order of magnitude as practical l values (0.1..5 nH/mm).
    EXPECT_GT(lc250, 1e-8);
    EXPECT_LT(lc250, 5e-6);
  }
}

TEST(PaperClaims, Figures5And6RatiosBracketUnityCorrectly) {
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    const auto rc = rc_optimum(tech);
    const auto at0 = optimize_rlc(tech, 0.0);
    const auto at5 = optimize_rlc(tech, 5e-6, [&] {
      OptimOptions o;
      o.h0 = at0.h;
      o.k0 = at0.k;
      return o;
    }());
    ASSERT_TRUE(at0.converged && at5.converged) << tech.name;
    EXPECT_LT(at0.h / rc.h, 1.0) << tech.name;   // Figure 5 at l=0
    EXPECT_GT(at5.h / rc.h, 1.0) << tech.name;   // grows past 1 with l
    EXPECT_LT(at5.k / rc.k, at0.k / rc.k) << tech.name;  // Figure 6 falls
    EXPECT_LT(at5.k / rc.k, 0.8) << tech.name;
  }
}

TEST(PaperClaims, OptimizationIsFast) {
  // "the entire optimization step is extremely efficient" — a full 11-point
  // technology sweep must complete in well under a second.
  const auto t0 = std::chrono::steady_clock::now();
  const auto rs = optimize_rlc_sweep(Technology::nm100(), sweep_l(10), kSerial);
  const auto dt = std::chrono::steady_clock::now() - t0;
  for (const auto& r : rs) ASSERT_TRUE(r.converged);
  EXPECT_LT(std::chrono::duration<double>(dt).count(), 1.0);
}

}  // namespace

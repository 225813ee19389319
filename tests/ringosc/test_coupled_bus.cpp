#include "rlc/ringosc/coupled_bus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "rlc/analysis/signal_metrics.hpp"
#include "rlc/core/delay.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/spice/transient.hpp"

namespace rlc::ringosc {
namespace {

using rlc::core::Technology;

TEST(CoupledBus, StructureAndValidation) {
  rlc::spice::Circuit ckt;
  const auto a1 = ckt.node("a1"), a2 = ckt.node("a2");
  const auto v1 = ckt.node("v1"), v2 = ckt.node("v2");
  const rlc::tline::LineParams line{4400.0, 1e-6, 1.5e-10};
  const CouplingParams cp{5e-11, 0.4};
  const auto bus =
      add_coupled_bus(ckt, "b", {a1, v1}, {a2, v2}, line, cp, 0.01, 8);
  ASSERT_EQ(bus.size(), 2u);
  EXPECT_EQ(bus[0].resistors.size(), 8u);
  EXPECT_EQ(bus[1].resistors.size(), 8u);

  const CouplingParams bad_k{0.0, 1.5};
  EXPECT_THROW(
      add_coupled_bus(ckt, "x", {a1, v1}, {a2, v2}, line, bad_k, 0.01, 4),
      std::invalid_argument);
  const rlc::tline::LineParams rc_line{4400.0, 0.0, 1.5e-10};
  const CouplingParams needs_l{0.0, 0.4};
  EXPECT_THROW(add_coupled_bus(ckt, "y", {a1, v1}, {a2, v2}, rc_line, needs_l,
                               0.01, 4),
               std::invalid_argument);
  EXPECT_THROW(add_coupled_bus(ckt, "z", {a1, v1}, {a2}, line, cp, 0.01, 4),
               std::invalid_argument);
}

/// Aggressor (conductor 0) 50% delays for a quiet, in-phase and anti-phase
/// victim (conductor 1), and the quiet victim's far-end peak noise.
struct Crosstalk {
  bool completed = false;
  double victim_peak_noise = 0.0;  ///< [V] when the victim is quiet
  double delay_quiet = 0.0;        ///< [s]
  double delay_inphase = 0.0;
  double delay_antiphase = 0.0;
};

class CrosstalkTest : public ::testing::Test {
 protected:
  static Crosstalk run(double cc_frac, double km) {
    const auto tech = Technology::nm100();
    const auto rc = rlc::core::rc_optimum(tech);
    const CouplingParams cp{cc_frac * tech.c, km};
    const double l = 1e-6, h = 0.5 * rc.h, k = 0.5 * rc.k;
    // Time scale from the two-pole model with the quiet-neighbour
    // capacitance; the window is 12 tau at tau/400 steps.
    rlc::tline::LineParams line_eff = tech.line(l);
    line_eff.c += 2.0 * cp.cc;
    const auto est = rlc::core::segment_delay(tech.rep, line_eff, h, k);
    const double tau = est.converged ? est.tau : rc.tau;
    const auto step = [&](const std::vector<double>& initial,
                          const std::vector<double>& target) {
      return run_coupled_step(tech, cp, l, h, k, initial, target, 12.0 * tau,
                              4800, 10);
    };
    const auto quiet = step({0.0, 0.0}, {1.0, 0.0});
    const auto in_phase = step({0.0, 0.0}, {1.0, 1.0});
    const auto anti = step({0.0, 1.0}, {1.0, 0.0});
    Crosstalk r;
    if (!quiet.completed || !in_phase.completed || !anti.completed) return r;
    const auto delay = [](const CoupledStepResult& s) {
      return rlc::analysis::first_crossing_after(
          s.time, s.far_end[0], 0.5, rlc::analysis::Edge::kRising, 0.0);
    };
    const auto dq = delay(quiet), di = delay(in_phase), da = delay(anti);
    if (!dq || !di || !da) return r;
    r.completed = true;
    r.delay_quiet = *dq;
    r.delay_inphase = *di;
    r.delay_antiphase = *da;
    for (double v : quiet.far_end[1]) {
      r.victim_peak_noise = std::max(r.victim_peak_noise, std::abs(v));
    }
    return r;
  }
};

TEST_F(CrosstalkTest, MillerOrderingOfDelays) {
  // Anti-phase neighbour switching slows the aggressor, in-phase speeds it
  // up: delay_inphase < delay_quiet < delay_antiphase (Section 3 Miller
  // discussion).
  const auto r = run(0.3, 0.0);
  ASSERT_TRUE(r.completed);
  EXPECT_LT(r.delay_inphase, r.delay_quiet);
  EXPECT_LT(r.delay_quiet, r.delay_antiphase);
  // The spread is substantial for 30% coupling.
  EXPECT_GT(r.delay_antiphase / r.delay_inphase, 1.1);
}

TEST_F(CrosstalkTest, VictimNoiseGrowsWithCoupling) {
  const auto weak = run(0.1, 0.0);
  const auto strong = run(0.4, 0.0);
  ASSERT_TRUE(weak.completed);
  ASSERT_TRUE(strong.completed);
  EXPECT_GT(strong.victim_peak_noise, weak.victim_peak_noise);
  EXPECT_GT(weak.victim_peak_noise, 0.0);
}

TEST_F(CrosstalkTest, InductiveCouplingAddsNoise) {
  const auto cap_only = run(0.2, 0.0);
  const auto both = run(0.2, 0.4);
  ASSERT_TRUE(cap_only.completed);
  ASSERT_TRUE(both.completed);
  // Magnetic coupling injects additional victim noise on top of the
  // capacitive component (long current return loops — the paper's
  // Section 1.1 motivation).
  EXPECT_GT(both.victim_peak_noise, cap_only.victim_peak_noise);
}

}  // namespace
}  // namespace rlc::ringosc

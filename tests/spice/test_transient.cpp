#include "rlc/spice/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "rlc/core/pade.hpp"
#include "rlc/core/two_pole.hpp"
#include "rlc/spice/circuit.hpp"

namespace rlc::spice {
namespace {

double value_at(const std::vector<double>& t, const std::vector<double>& y,
                double when) {
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i] >= when) {
      const double f = (when - t[i - 1]) / (t[i] - t[i - 1]);
      return y[i - 1] + f * (y[i] - y[i - 1]);
    }
  }
  return y.back();
}

TEST(Transient, RcChargingMatchesAnalytic) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.add_vsource("V1", in, c.ground(), PulseSpec{0, 1, 0, 1e-13, 1e-13, 1, 0});
  c.add_resistor("R1", in, out, 1e3);
  c.add_capacitor("C1", out, c.ground(), 1e-9);
  TransientOptions o;
  o.tstop = 4e-6;
  o.dt = 2e-9;
  const auto r = run_transient(c, o);
  ASSERT_TRUE(r.completed);
  const auto& v = r.signal("v(out)");
  for (double frac : {0.5, 1.0, 2.0}) {
    const double t = frac * 1e-6;  // tau = 1 us
    EXPECT_NEAR(value_at(r.time, v, t), 1.0 - std::exp(-frac), 2e-3) << frac;
  }
}

TEST(Transient, TrapezoidalIsSecondOrderAccurate) {
  // Drive with a ramp whose breakpoints land on sample instants of BOTH
  // step sizes so the input discretization is identical; then halving dt
  // must cut the error by ~4x (order 2), not the ~2x of a first-order rule.
  const double T = 64e-9;   // ramp duration
  const double tau = 1e-6;  // RC
  const auto analytic = [&](double t) {
    const double a = 1.0 / T;
    if (t <= T) return a * (t - tau * (1.0 - std::exp(-t / tau)));
    const double vT = a * (T - tau * (1.0 - std::exp(-T / tau)));
    return 1.0 - (1.0 - vT) * std::exp(-(t - T) / tau);
  };
  const auto rc_error = [&](double dt) {
    Circuit c;
    const auto in = c.node("in"), out = c.node("out");
    c.add_vsource("V1", in, c.ground(), PwlSpec{{{0.0, 0.0}, {T, 1.0}}});
    c.add_resistor("R1", in, out, 1e3);
    c.add_capacitor("C1", out, c.ground(), 1e-9);
    TransientOptions o;
    o.tstop = 1e-6;
    o.dt = dt;
    o.be_startup_steps = 0;
    const auto r = run_transient(c, o);
    const auto& v = r.signal("v(out)");
    double emax = 0.0;
    for (std::size_t i = 0; i < r.time.size(); ++i) {
      emax = std::max(emax, std::abs(v[i] - analytic(r.time[i])));
    }
    return emax;
  };
  const double e1 = rc_error(8e-9);
  const double e2 = rc_error(4e-9);
  EXPECT_GT(e1 / e2, 3.2);
  EXPECT_LT(e1 / e2, 4.8);
}

TEST(Transient, RlCurrentRise) {
  // V/R (1 - e^{-t R/L}) through an RL branch.
  Circuit c;
  const auto in = c.node("in"), mid = c.node("mid");
  c.add_vsource("V1", in, c.ground(), PulseSpec{0, 1, 0, 1e-13, 1e-13, 1, 0});
  c.add_resistor("R1", in, mid, 10.0);
  auto& ind = c.add_inductor("L1", mid, c.ground(), 1e-6);
  TransientOptions o;
  o.tstop = 5e-7;
  o.dt = 5e-10;
  o.probes = {Probe::branch_current(ind, "iL")};
  const auto r = run_transient(c, o);
  ASSERT_TRUE(r.completed);
  const auto& i = r.signal("iL");
  const double tau = 1e-6 / 10.0;  // L/R = 100 ns
  EXPECT_NEAR(value_at(r.time, i, tau), 0.1 * (1.0 - std::exp(-1.0)), 2e-4);
  EXPECT_NEAR(i.back(), 0.1, 1e-3);
}

TEST(Transient, LcOscillationFrequencyAndAmplitude) {
  // Loss-free LC tank started from a charged capacitor: the trapezoidal
  // rule conserves the oscillation amplitude (A-stable, no numerical
  // damping) and the frequency must be 1/(2 pi sqrt(LC)).
  Circuit c;
  const auto n = c.node("n");
  c.add_capacitor("C1", n, c.ground(), 1e-9, /*ic=*/std::nullopt);
  c.add_inductor("L1", n, c.ground(), 1e-6);
  TransientOptions o;
  o.tstop = 2e-6;
  o.dt = 2e-10;
  o.be_startup_steps = 0;  // BE would damp the tank
  o.initial_voltages = {{n, 1.0}};
  const auto r = run_transient(c, o);
  ASSERT_TRUE(r.completed);
  const auto& v = r.signal("v(n)");
  // Amplitude at the end ~ 1 (no decay).
  double vmax_late = 0.0;
  for (std::size_t i = v.size() / 2; i < v.size(); ++i) {
    vmax_late = std::max(vmax_late, v[i]);
  }
  EXPECT_NEAR(vmax_late, 1.0, 5e-3);
  // Count zero crossings to estimate frequency.
  int crossings = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1] < 0.0 && v[i] >= 0.0) ++crossings;
  }
  const double f_est = crossings / 2e-6;
  const double f_exact = 1.0 / (2.0 * 3.14159265358979 * std::sqrt(1e-6 * 1e-9));
  EXPECT_NEAR(f_est, f_exact, 0.02 * f_exact);
}

TEST(Transient, SeriesRlcMatchesTwoPoleModel) {
  // R-L-C driven by a step: exactly the second-order system of Figure 2
  // with b1 = RC, b2 = LC; the simulated node must track the closed form.
  const double R = 50.0, L = 1e-6, C = 1e-9;
  Circuit c;
  const auto in = c.node("in"), m = c.node("m"), out = c.node("out");
  c.add_vsource("V1", in, c.ground(), PulseSpec{0, 1, 0, 1e-14, 1e-14, 1, 0});
  c.add_resistor("R1", in, m, R);
  c.add_inductor("L1", m, out, L);
  c.add_capacitor("C1", out, c.ground(), C);
  TransientOptions o;
  o.tstop = 1.5e-6;
  o.dt = 1e-10;
  const auto r = run_transient(c, o);
  ASSERT_TRUE(r.completed);
  const rlc::core::TwoPole sys(rlc::core::PadeCoeffs{R * C, L * C});
  const auto& v = r.signal("v(out)");
  for (double t : {5e-8, 2e-7, 6e-7, 1.2e-6}) {
    EXPECT_NEAR(value_at(r.time, v, t), sys.step_response(t), 5e-3) << t;
  }
}

TEST(Transient, BackwardEulerDampsButConverges) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.add_vsource("V1", in, c.ground(), DcSpec{1.0});
  c.add_resistor("R1", in, out, 1e3);
  c.add_capacitor("C1", out, c.ground(), 1e-9);
  TransientOptions o;
  o.tstop = 1e-5;
  o.dt = 1e-8;
  o.method = Integrator::kBackwardEuler;
  const auto r = run_transient(c, o);
  ASSERT_TRUE(r.completed);
  // tstop = 10 tau: compare against the analytic value, not the asymptote.
  EXPECT_NEAR(r.signal("v(out)").back(), 1.0 - std::exp(-10.0), 1e-4);
}

TEST(Transient, RecordStartDiscardsEarlySamples) {
  Circuit c;
  const auto n = c.node("n");
  c.add_vsource("V1", n, c.ground(), DcSpec{1.0});
  c.add_resistor("R1", n, c.ground(), 1.0);
  TransientOptions o;
  o.tstop = 1e-6;
  o.dt = 1e-8;
  o.record_start = 0.5e-6;
  const auto r = run_transient(c, o);
  ASSERT_TRUE(r.completed);
  ASSERT_FALSE(r.time.empty());
  EXPECT_GE(r.time.front(), 0.5e-6 - 1e-12);
}

TEST(Transient, ProbeSelectionAndLabels) {
  Circuit c;
  const auto a = c.node("a"), b = c.node("b");
  c.add_vsource("V1", a, c.ground(), DcSpec{2.0});
  auto& res = c.add_resistor("R1", a, b, 1e3);
  c.add_resistor("R2", b, c.ground(), 1e3);
  TransientOptions o;
  o.tstop = 1e-7;
  o.dt = 1e-9;
  o.probes = {Probe::node_voltage(b, "vb"), Probe::resistor_current(res, "ir")};
  const auto r = run_transient(c, o);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.signal("vb").back(), 1.0, 1e-9);
  EXPECT_NEAR(r.signal("ir").back(), 1e-3, 1e-12);
  EXPECT_THROW(r.signal("nope"), std::out_of_range);
}

TEST(Transient, StartFromDcOperatingPoint) {
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.add_vsource("V1", in, c.ground(), DcSpec{3.0});
  c.add_resistor("R1", in, out, 1e3);
  c.add_capacitor("C1", out, c.ground(), 1e-9);
  TransientOptions o;
  o.tstop = 1e-6;
  o.dt = 1e-8;
  o.start_from_dc = true;
  const auto r = run_transient(c, o);
  ASSERT_TRUE(r.completed);
  // Already settled: output stays at 3 V throughout.
  for (double v : r.signal("v(out)")) EXPECT_NEAR(v, 3.0, 1e-4);
}

TEST(Transient, OptionValidation) {
  Circuit c;
  const auto n = c.node("n");
  c.add_resistor("R", n, c.ground(), 1.0);
  TransientOptions o;
  o.tstop = 0.0;
  o.dt = 1e-9;
  EXPECT_THROW(run_transient(c, o), std::invalid_argument);
  o.tstop = 1e-9;
  o.dt = 1e-8;  // dt > tstop
  EXPECT_THROW(run_transient(c, o), std::invalid_argument);
}

}  // namespace
}  // namespace rlc::spice

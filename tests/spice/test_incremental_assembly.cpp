// Incremental MNA assembly in run_transient: the solver-internal
// nonlinear-last ordering, the partial LU refactor and the per-step reuse of
// linear stamps must not change what a transient computes.

#include "rlc/spice/transient.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "rlc/spice/circuit.hpp"

namespace rlc::spice {
namespace {

/// Mean period of `v` from its rising crossings of `level` (linear
/// interpolation between samples), over the crossings after `t_from`.
double mean_period(const std::vector<double>& t, const std::vector<double>& v,
                   double level, double t_from) {
  std::vector<double> rises;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i] < t_from) continue;
    if (v[i - 1] < level && v[i] >= level) {
      const double f = (level - v[i - 1]) / (v[i] - v[i - 1]);
      rises.push_back(t[i - 1] + f * (t[i] - t[i - 1]));
    }
  }
  if (rises.size() < 3) return -1.0;
  return (rises.back() - rises.front()) / static_cast<double>(rises.size() - 1);
}

/// A 3-stage CMOS ring whose stages drive 4-segment RLC ladders.  Node
/// creation order puts every inverter node first, so the nonlinear unknowns
/// are the lowest-numbered ones in the public ordering.
struct SmallRing {
  Circuit ckt;
  TransientOptions opts;
  NodeId probe = 0;
};

void build_small_ring(SmallRing& r) {
  constexpr int kStages = 3, kSegments = 4;
  constexpr double kVdd = 1.2;
  MosParams nmos{MosType::kNmos, 0.3, 2e-3, 0.05};
  MosParams pmos = nmos;
  pmos.type = MosType::kPmos;
  Circuit& c = r.ckt;
  const NodeId vdd = c.node("vdd");
  c.add_vsource("vsupply", vdd, c.ground(), DcSpec{kVdd});
  std::vector<NodeId> in(kStages), out(kStages);
  for (int i = 0; i < kStages; ++i) {
    in[i] = c.node("in" + std::to_string(i));
    out[i] = c.node("out" + std::to_string(i));
  }
  for (int i = 0; i < kStages; ++i) {
    const std::string s = std::to_string(i);
    c.add_mosfet("mp" + s, out[i], in[i], vdd, pmos);
    c.add_mosfet("mn" + s, out[i], in[i], c.ground(), nmos);
    c.add_capacitor("cin" + s, in[i], c.ground(), 2e-15);
    c.add_capacitor("cout" + s, out[i], c.ground(), 1e-15);
    NodeId a = out[i];
    for (int k = 0; k < kSegments; ++k) {
      const std::string seg = "l" + s + "." + std::to_string(k);
      const NodeId b = (k + 1 == kSegments) ? in[(i + 1) % kStages]
                                             : c.node(seg + ".n");
      const NodeId mid = c.node(seg + ".m");
      c.add_resistor(seg + ".r", a, mid, 40.0);
      c.add_inductor(seg + ".l", mid, b, 0.3e-9);
      c.add_capacitor(seg + ".ca", a, c.ground(), 10e-15);
      c.add_capacitor(seg + ".cb", b, c.ground(), 10e-15);
      a = b;
    }
  }
  r.opts.tstop = 5e-9;
  r.opts.dt = 1e-12;
  for (int i = 0; i < kStages; ++i) {
    const double vi = (i % 2 == 0) ? kVdd : 0.0;
    r.opts.initial_voltages.emplace_back(in[i], vi);
    r.opts.initial_voltages.emplace_back(out[i], kVdd - vi);
  }
  r.probe = out[1];
  r.opts.probes = {Probe::node_voltage(out[1], "v_out")};
}

TEST(IncrementalAssembly, ThreeStageRingKeepsItsPeriod) {
  // Reference: the period this ring had before the solver-internal
  // ordering, the partial refactor and the linear-stamp reuse existed.
  constexpr double kPeriodBefore = 7.0745934567105982e-10;
  SmallRing ring;
  build_small_ring(ring);
  const auto res = run_transient(ring.ckt, ring.opts);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.steps_accepted, 5000);
  const double period = mean_period(res.time, res.signal("v_out"), 0.6, 1e-9);
  ASSERT_GT(period, 0.0);
  EXPECT_NEAR(period / kPeriodBefore - 1.0, 0.0, 1e-9);
}

TEST(IncrementalAssembly, EveryDeviceTypeMatchesFullRestamp) {
  // R, C, L, K, V, I, E, G and M in one circuit: the incremental path and
  // the reference path (every device restamped, every column refactored,
  // public ordering) must produce the same transient.
  const auto build = [](Circuit& c) {
    MosParams nmos{MosType::kNmos, 0.3, 2e-3, 0.05};
    MosParams pmos = nmos;
    pmos.type = MosType::kPmos;
    const NodeId in = c.node("in"), a = c.node("a"), b = c.node("b");
    const NodeId sec = c.node("sec"), e = c.node("e"), g = c.node("g");
    const NodeId vdd = c.node("vdd"), out = c.node("out");
    c.add_vsource("V1", in, c.ground(),
                  PulseSpec{0.0, 1.0, 20e-12, 10e-12, 10e-12, 150e-12, 400e-12});
    c.add_resistor("R1", in, a, 50.0);
    c.add_capacitor("C1", a, c.ground(), 50e-15);
    auto& l1 = c.add_inductor("L1", a, b, 0.5e-9);
    c.add_resistor("R2", b, c.ground(), 200.0);
    auto& l2 = c.add_inductor("L2", sec, c.ground(), 0.4e-9);
    c.add_resistor("R3", sec, c.ground(), 30.0);
    c.add_mutual("K1", l1, l2, 0.4);
    c.add_isource("I1", c.ground(), a, SinSpec{0.0, 1e-3, 5e9, 0.0, 0.0});
    c.add_vcvs("E1", e, c.ground(), b, c.ground(), 1.2);
    c.add_resistor("R4", e, c.ground(), 1e3);
    c.add_vccs("G1", c.ground(), g, sec, c.ground(), 1e-3);
    c.add_resistor("R5", g, c.ground(), 500.0);
    c.add_vsource("VDD", vdd, c.ground(), DcSpec{1.2});
    c.add_mosfet("MP", out, e, vdd, pmos);
    c.add_mosfet("MN", out, e, c.ground(), nmos);
    c.add_capacitor("CL", out, c.ground(), 20e-15);
  };
  TransientOptions o;
  o.tstop = 1e-9;
  o.dt = 0.5e-12;
  Circuit c_inc, c_ref;
  build(c_inc);
  build(c_ref);
  const auto inc = run_transient(c_inc, o);
  o.incremental_assembly = false;
  const auto ref = run_transient(c_ref, o);
  ASSERT_TRUE(inc.completed);
  ASSERT_TRUE(ref.completed);
  EXPECT_EQ(inc.newton_iterations, ref.newton_iterations);
  ASSERT_EQ(inc.time, ref.time);
  ASSERT_EQ(inc.labels, ref.labels);
  double swing = 0.0;
  for (const auto& s : ref.signals) {
    for (double v : s) swing = std::max(swing, std::abs(v));
  }
  ASSERT_GT(swing, 0.5);
  for (std::size_t k = 0; k < ref.signals.size(); ++k) {
    for (std::size_t i = 0; i < ref.time.size(); ++i) {
      ASSERT_NEAR(inc.signals[k][i], ref.signals[k][i], 1e-9 * swing)
          << ref.labels[k] << " at sample " << i;
    }
  }
}

TEST(IncrementalAssembly, StepHalvingAndStartupStepsMeetClosedForms) {
  // Two closed-form fixtures share a circuit with an inverter whose input
  // edge starves Newton (max_newton = 2), so steps are halved there: the
  // cached linear stamps must follow every dt change, and the
  // backward-Euler start-up steps, and still meet
  //   RC:  v(t) = V0 exp(-t / RC)
  //   RLC: v(t) = V0 exp(-a t) (cos(w t) + (a / w) sin(w t)),
  //        a = R / 2L, w = sqrt(1 / LC - a^2).
  const double V0 = 1.0, Rc = 200.0, Cc = 1e-12;
  const double Rl = 10.0, L = 1e-9, Cl = 1e-12;
  Circuit c;
  const NodeId rc = c.node("rc");
  c.add_resistor("Rc", rc, c.ground(), Rc);
  c.add_capacitor("Cc", rc, c.ground(), Cc);
  const NodeId la = c.node("la"), lb = c.node("lb");
  c.add_capacitor("Cl", la, c.ground(), Cl);
  c.add_inductor("L1", la, lb, L);
  c.add_resistor("Rl", lb, c.ground(), Rl);
  MosParams nmos{MosType::kNmos, 0.3, 2e-3, 0.05};
  MosParams pmos = nmos;
  pmos.type = MosType::kPmos;
  const NodeId vdd = c.node("vdd"), in = c.node("in"), out = c.node("out");
  c.add_vsource("VDD", vdd, c.ground(), DcSpec{1.2});
  c.add_vsource("VIN", in, c.ground(),
                PulseSpec{0.0, 1.2, 0.3e-9, 1e-12, 1e-12, 1.0, 0.0});
  c.add_mosfet("MP", out, in, vdd, pmos);
  c.add_mosfet("MN", out, in, c.ground(), nmos);
  c.add_capacitor("CL", out, c.ground(), 5e-15);

  TransientOptions o;
  o.tstop = 1e-9;
  o.dt = 0.1e-12;
  o.be_startup_steps = 5;
  o.max_newton = 2;
  o.initial_voltages = {{rc, V0}, {la, V0}, {lb, 0.0}, {vdd, 1.2}, {out, 1.2}};
  o.probes = {Probe::node_voltage(rc, "rc"), Probe::node_voltage(la, "rlc")};
  const auto r = run_transient(c, o);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.steps_rejected, 1);
  const double a = Rl / (2 * L);
  const double w = std::sqrt(1.0 / (L * Cl) - a * a);
  double err_rc = 0.0, err_rlc = 0.0;
  for (std::size_t i = 0; i < r.time.size(); ++i) {
    const double t = r.time[i];
    err_rc = std::max(err_rc,
                      std::abs(r.signal("rc")[i] - V0 * std::exp(-t / (Rc * Cc))));
    const double v_rlc =
        V0 * std::exp(-a * t) * (std::cos(w * t) + a / w * std::sin(w * t));
    err_rlc = std::max(err_rlc, std::abs(r.signal("rlc")[i] - v_rlc));
  }
  EXPECT_LT(err_rc, 1e-4);
  EXPECT_LT(err_rlc, 2e-3);
}

}  // namespace
}  // namespace rlc::spice

/// Randomized cross-validation: independent implementations must agree on
/// randomly generated problems.  Fixed seeds keep the suite deterministic:
/// every trial's inputs are drawn serially from the seeded RNG, the heavy
/// solves then fan out over the rlc::exec pool (results collected in trial
/// order), and all assertions run back on the main thread.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "rlc/core/delay.hpp"
#include "rlc/exec/thread_pool.hpp"
#include "rlc/linalg/lu.hpp"
#include "rlc/linalg/sparse_lu.hpp"
#include "rlc/spice/dcop.hpp"

namespace {

TEST(Randomized, SparseAndDenseLuAgreeOnRandomMnaLikeSystems) {
  struct Trial {
    rlc::linalg::MatrixD a{30, 30};
    std::vector<rlc::linalg::Triplet> trip;
    std::vector<double> b;
  };
  const int n = 30;
  std::mt19937 rng(2026);
  std::uniform_real_distribution<double> g(0.1, 10.0);
  std::uniform_int_distribution<int> pick(0, 29);
  std::uniform_real_distribution<double> rb(-1.0, 1.0);
  std::vector<Trial> trials(20);
  for (auto& t : trials) {
    // Random conductance network: symmetric stamps + diagonal dominance,
    // the structure MNA produces.
    for (int e = 0; e < 120; ++e) {
      int i = pick(rng), j = pick(rng);
      if (i == j) continue;
      const double cond = g(rng);
      t.a(i, i) += cond;
      t.a(j, j) += cond;
      t.a(i, j) -= cond;
      t.a(j, i) -= cond;
      t.trip.push_back({i, i, cond});
      t.trip.push_back({j, j, cond});
      t.trip.push_back({i, j, -cond});
      t.trip.push_back({j, i, -cond});
    }
    for (int i = 0; i < n; ++i) {
      t.a(i, i) += 1e-3;  // gmin-like ground reference
      t.trip.push_back({i, i, 1e-3});
    }
    t.b.resize(n);
    for (auto& v : t.b) v = rb(rng);
  }

  struct Solved {
    std::vector<double> dense, sparse;
  };
  const auto solved = rlc::exec::parallel_map(trials, [&](const Trial& t) {
    Solved s;
    s.dense = rlc::linalg::LUD(t.a).solve(t.b);
    const auto m = rlc::linalg::CscMatrix::from_triplets(n, n, t.trip);
    s.sparse = rlc::linalg::SparseLU(m).solve(t.b);
    return s;
  });

  for (std::size_t trial = 0; trial < solved.size(); ++trial) {
    for (int i = 0; i < n; ++i) {
      const double xd = solved[trial].dense[i];
      EXPECT_NEAR(solved[trial].sparse[i], xd, 1e-8 * (1.0 + std::abs(xd)))
          << "trial " << trial << " i " << i;
    }
  }
}

TEST(Randomized, RandomResistorNetworksSatisfyDcConservation) {
  // KCL sanity on random resistive meshes solved by the full DC path:
  // current out of the source equals current into ground.
  struct Spec {
    std::vector<double> chain_r;              // n-1 spanning-chain resistors
    std::vector<std::array<int, 2>> extra;    // extra mesh edges
    std::vector<double> extra_r;
    double rg0, rg1;
  };
  const int n_nodes = 8;
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> rr(10.0, 1e4);
  std::uniform_int_distribution<int> pick(0, n_nodes - 1);
  std::vector<Spec> specs(10);
  for (auto& spec : specs) {
    for (int i = 1; i < n_nodes; ++i) spec.chain_r.push_back(rr(rng));
    for (int e = 0; e < 10; ++e) {
      const int i = pick(rng), j = pick(rng);
      if (i == j) continue;
      spec.extra.push_back({i, j});
      spec.extra_r.push_back(rr(rng));
    }
    spec.rg0 = rr(rng);
    spec.rg1 = rr(rng);
  }

  struct DcOut {
    bool converged = false;
    double i_src = 0.0;
    double i_gnd = 0.0;
  };
  const auto outs = rlc::exec::parallel_map(specs, [&](const Spec& spec) {
    rlc::spice::Circuit c;
    std::vector<rlc::spice::NodeId> nodes;
    for (int i = 0; i < n_nodes; ++i) {
      nodes.push_back(c.node("n" + std::to_string(i)));
    }
    // Spanning chain guarantees connectivity.
    for (int i = 1; i < n_nodes; ++i) {
      c.add_resistor("Rc" + std::to_string(i), nodes[i - 1], nodes[i],
                     spec.chain_r[i - 1]);
    }
    for (std::size_t e = 0; e < spec.extra.size(); ++e) {
      c.add_resistor("Rx" + std::to_string(e), nodes[spec.extra[e][0]],
                     nodes[spec.extra[e][1]], spec.extra_r[e]);
    }
    std::vector<const rlc::spice::Resistor*> to_gnd;
    to_gnd.push_back(&c.add_resistor("Rg0", nodes[3], c.ground(), spec.rg0));
    to_gnd.push_back(&c.add_resistor("Rg1", nodes[6], c.ground(), spec.rg1));
    auto& vsrc =
        c.add_vsource("V1", nodes[0], c.ground(), rlc::spice::DcSpec{5.0});
    const auto dc = rlc::spice::dc_operating_point(c);
    DcOut out;
    out.converged = dc.converged;
    if (dc.converged) {
      out.i_src = dc.x[vsrc.branch_base()];
      for (const auto* r : to_gnd) out.i_gnd += r->current(dc.x);
    }
    return out;
  });

  for (std::size_t trial = 0; trial < outs.size(); ++trial) {
    ASSERT_TRUE(outs[trial].converged) << trial;
    // Source branch current flows p -> n inside the source; KCL at ground:
    // what leaves through the resistors returns through the source.
    EXPECT_NEAR(-outs[trial].i_src, outs[trial].i_gnd,
                1e-6 * (std::abs(outs[trial].i_gnd) + 1e-9))
        << trial;
  }
}

TEST(Randomized, TwoPoleDelayInvariants) {
  // For random passive (b1, b2): the 50% delay exists, is positive, grows
  // with b1 at fixed b2/b1^2 ratio, and v(tau) = 0.5 exactly.
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> rb1(1e-12, 1e-9);
  std::uniform_real_distribution<double> ratio(0.01, 30.0);  // b2 / (b1^2/4)
  std::vector<std::array<double, 2>> coeffs(60);
  for (auto& bc : coeffs) {
    bc[0] = rb1(rng);
    bc[1] = ratio(rng) * bc[0] * bc[0] / 4.0;
  }

  struct DelayOut {
    bool converged = false, scaled_converged = false;
    double tau = 0.0, v_at_tau = 0.0, scaled_tau = 0.0;
  };
  const double a = 3.0;
  const auto outs =
      rlc::exec::parallel_map(coeffs, [&](const std::array<double, 2>& bc) {
        DelayOut out;
        const rlc::core::TwoPole sys({bc[0], bc[1]});
        const auto r = rlc::core::threshold_delay(sys);
        out.converged = r.converged;
        if (r.converged) {
          out.tau = r.tau;
          out.v_at_tau = sys.step_response(r.tau);
        }
        // Scaling invariance: (a*b1, a^2*b2) scales tau by a.
        const rlc::core::TwoPole scaled({a * bc[0], a * a * bc[1]});
        const auto rs = rlc::core::threshold_delay(scaled);
        out.scaled_converged = rs.converged;
        if (rs.converged) out.scaled_tau = rs.tau;
        return out;
      });

  for (std::size_t trial = 0; trial < outs.size(); ++trial) {
    const auto& out = outs[trial];
    ASSERT_TRUE(out.converged) << trial;
    EXPECT_GT(out.tau, 0.0);
    EXPECT_NEAR(out.v_at_tau, 0.5, 1e-7) << trial;
    ASSERT_TRUE(out.scaled_converged);
    EXPECT_NEAR(out.scaled_tau, a * out.tau, 1e-6 * out.scaled_tau) << trial;
  }
}

}  // namespace

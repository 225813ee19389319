#include "rlc/tline/coupled_line.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

namespace {

using rlc::tline::CoupledLine;
using rlc::tline::LineParams;
using rlc::tline::modal_decomposition;
using rlc::tline::ModalDecomposition;
using rlc::tline::symmetric_bus;

const LineParams kBase{25.0e3, 5.0e-7, 2.0e-10};  // ~paper-scale per-metre

TEST(CoupledLine, SingleConductorDegeneratesToLineParams) {
  CoupledLine line = symmetric_bus(kBase, 0.5, 0.5, 1);
  EXPECT_EQ(line.conductors(), 1u);
  EXPECT_DOUBLE_EQ(line.inductance(0, 0), kBase.l);
  EXPECT_DOUBLE_EQ(line.capacitance(0, 0), kBase.c);

  ModalDecomposition d = modal_decomposition(line);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d.modes[0].r, kBase.r);
  EXPECT_DOUBLE_EQ(d.modes[0].l, kBase.l);
  EXPECT_DOUBLE_EQ(d.modes[0].c, kBase.c);
  EXPECT_DOUBLE_EQ(d.vectors(0, 0), 1.0);
}

TEST(CoupledLine, TwoConductorMatricesMatchLadderTopology) {
  const double cc = 0.3 * kBase.c;
  const double km = 0.4;
  CoupledLine line = symmetric_bus(kBase, cc, km, 2);
  // C_ii = c + cc, C_ij = -cc — exactly add_coupled_bus' junction caps.
  EXPECT_DOUBLE_EQ(line.capacitance(0, 0), kBase.c + cc);
  EXPECT_DOUBLE_EQ(line.capacitance(1, 1), kBase.c + cc);
  EXPECT_DOUBLE_EQ(line.capacitance(0, 1), -cc);
  EXPECT_DOUBLE_EQ(line.inductance(0, 0), kBase.l);
  EXPECT_DOUBLE_EQ(line.inductance(0, 1), km * kBase.l);
}

TEST(CoupledLine, TwoConductorEvenOddModes) {
  const double cc = 0.3 * kBase.c;
  const double km = 0.4;
  ModalDecomposition d = modal_decomposition(symmetric_bus(kBase, cc, km, 2));
  ASSERT_EQ(d.size(), 2u);
  // Mode 0 (smaller modal c) = even/in-phase: (r, l(1+km), c).
  EXPECT_NEAR(d.modes[0].c, kBase.c, 1e-9 * kBase.c);
  EXPECT_NEAR(d.modes[0].l, kBase.l * (1.0 + km), 1e-9 * kBase.l);
  // Mode 1 = odd/anti-phase: (r, l(1-km), c+2cc).
  EXPECT_NEAR(d.modes[1].c, kBase.c + 2.0 * cc, 1e-9 * kBase.c);
  EXPECT_NEAR(d.modes[1].l, kBase.l * (1.0 - km), 1e-9 * kBase.l);
  // Even column is (1,1)/sqrt2 up to sign, odd is (1,-1)/sqrt2.
  const double s2 = std::sqrt(0.5);
  EXPECT_NEAR(std::abs(d.vectors(0, 0)), s2, 1e-12);
  EXPECT_NEAR(d.vectors(0, 0), d.vectors(1, 0), 1e-12);
  EXPECT_NEAR(d.vectors(0, 1), -d.vectors(1, 1), 1e-12);
}

TEST(CoupledLine, WeightsAndRecomposeRoundTrip) {
  ModalDecomposition d =
      modal_decomposition(symmetric_bus(kBase, 0.2 * kBase.c, 0.25, 3));
  const std::vector<double> x{1.0, 0.0, -1.0};
  auto w = d.modal_weights(x);
  auto back = d.recompose(w);
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(back[i], x[i], 1e-12);
}

TEST(CoupledLine, ThreeConductorModesPairConsistently) {
  const double cc = 0.25 * kBase.c;
  const double km = 0.3;
  ModalDecomposition d = modal_decomposition(symmetric_bus(kBase, cc, km, 3));
  ASSERT_EQ(d.size(), 3u);
  // Path-graph adjacency eigenvalues are {sqrt2, 0, -sqrt2}; each mode must
  // pair c_j = (c + 2cc) - cc*lam with l_j = l (1 + km*lam) for the SAME lam.
  for (const auto& m : d.modes) {
    const double lam_from_c = (kBase.c + 2.0 * cc - m.c) / cc;
    const double lam_from_l = (m.l / kBase.l - 1.0) / km;
    EXPECT_NEAR(lam_from_c, lam_from_l, 1e-9);
    EXPECT_NEAR(std::abs(lam_from_c) * (std::abs(lam_from_c) > 0.5 ? 1.0 : 0.0),
                std::abs(lam_from_c) > 0.5 ? std::sqrt(2.0) : 0.0, 1e-9);
  }
  // Sorted by ascending modal capacitance.
  EXPECT_LT(d.modes[0].c, d.modes[1].c);
  EXPECT_LT(d.modes[1].c, d.modes[2].c);
}

TEST(CoupledLine, UncoupledBusIsIdentityBasis) {
  ModalDecomposition d = modal_decomposition(symmetric_bus(kBase, 0.0, 0.0, 3));
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(d.modes[j].l, kBase.l);
    EXPECT_DOUBLE_EQ(d.modes[j].c, kBase.c);
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_NEAR(std::abs(d.vectors(i, j)), i == j ? 1.0 : 0.0, 1e-12);
  }
}

TEST(CoupledLine, ValidateRejectsBadInput) {
  EXPECT_THROW(symmetric_bus(kBase, -1e-12, 0.0, 2), std::domain_error);
  EXPECT_THROW(symmetric_bus(kBase, 0.0, 1.0, 2), std::domain_error);
  EXPECT_THROW(symmetric_bus(kBase, 0.0, 0.0, 0), std::domain_error);
  EXPECT_THROW(symmetric_bus(kBase, 0.0, 0.0, 9), std::domain_error);

  CoupledLine bad = symmetric_bus(kBase, 0.1 * kBase.c, 0.1, 2);
  bad.r = 0.0;
  EXPECT_THROW(bad.validate(), std::domain_error);

  CoupledLine asym = symmetric_bus(kBase, 0.1 * kBase.c, 0.1, 2);
  asym.inductance(0, 1) = 2.0 * asym.inductance(1, 0);
  EXPECT_THROW(asym.validate(), std::domain_error);
}

TEST(CoupledLine, StrongMutualOnWideBusThrowsUnphysicalMode) {
  // n = 3: extreme adjacency eigenvalue sqrt2, so km = 0.8 would drive the
  // fastest mode's inductance l (1 - 0.8 sqrt2) < 0; symmetric_bus
  // already rejects the unrealizable L.
  EXPECT_THROW(modal_decomposition(symmetric_bus(kBase, 0.1 * kBase.c, 0.8, 3)),
               std::domain_error);
}

TEST(CoupledLine, SymmetricBusEnforcesTheRealizabilityBound) {
  // L = l (I + km A) is positive definite iff |km| 2cos(pi/(n+1)) < 1:
  // |km| < 1 for n = 2, < 1/sqrt2 for n = 3, < 0.532 for n = 8.
  const double cc = 0.1 * kBase.c;
  EXPECT_NO_THROW(symmetric_bus(kBase, cc, 0.99, 2));
  EXPECT_NO_THROW(symmetric_bus(kBase, cc, 0.70, 3));
  EXPECT_NO_THROW(symmetric_bus(kBase, cc, -0.70, 3));
  EXPECT_NO_THROW(symmetric_bus(kBase, cc, 0.53, 8));
  EXPECT_THROW(symmetric_bus(kBase, cc, 0.54, 8), std::domain_error);
  EXPECT_THROW(symmetric_bus(kBase, cc, -0.75, 3), std::domain_error);
  try {
    symmetric_bus(kBase, cc, 0.75, 3);
    ADD_FAILURE() << "km = 0.75 accepted on a 3-conductor bus";
  } catch (const std::domain_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("|km| * 2cos(pi/(n+1)) < 1"), std::string::npos)
        << what;
    EXPECT_NE(what.find("0.707107"), std::string::npos) << what;
  }
  // Every accepted bus has a realizable modal picture: all modal
  // inductances positive just inside the bound.
  for (std::size_t n = 2; n <= 8; ++n) {
    const double bound = 0.5 / std::cos(M_PI / (n + 1.0));
    const double km = 0.99 * std::min(bound, 1.0);
    const ModalDecomposition d =
        modal_decomposition(symmetric_bus(kBase, cc, km, n));
    for (const auto& mode : d.modes) EXPECT_GT(mode.l, 0.0) << "n = " << n;
  }
}

TEST(CoupledLine, NonCommutingPairThrows) {
  CoupledLine line = symmetric_bus(kBase, 0.2 * kBase.c, 0.0, 3);
  // Break the homogenization: edge conductors lose the shield cap, C is no
  // longer a polynomial in the adjacency and [C, L] != 0 once km != 0.
  line.inductance(0, 1) = line.inductance(1, 0) = 0.3 * kBase.l;
  line.inductance(1, 2) = line.inductance(2, 1) = 0.3 * kBase.l;
  line.capacitance(0, 0) = kBase.c + 0.2 * kBase.c;  // de-homogenize
  EXPECT_THROW(modal_decomposition(line), std::runtime_error);
}

}  // namespace

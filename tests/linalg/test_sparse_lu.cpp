#include "rlc/linalg/sparse_lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "rlc/linalg/lu.hpp"

namespace rlc::linalg {
namespace {

CscMatrix dense_to_csc(const MatrixD& a) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != 0.0) {
        t.push_back({static_cast<int>(i), static_cast<int>(j), a(i, j)});
      }
    }
  }
  return CscMatrix::from_triplets(static_cast<int>(a.rows()),
                                  static_cast<int>(a.cols()), t);
}

TEST(SparseLU, Diagonal) {
  const auto m = CscMatrix::from_triplets(
      3, 3, {{0, 0, 2.0}, {1, 1, 4.0}, {2, 2, 8.0}});
  const SparseLU lu(m);
  const auto x = lu.solve({2.0, 4.0, 8.0});
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 1.0, 1e-14);
  EXPECT_NEAR(x[2], 1.0, 1e-14);
}

TEST(SparseLU, RequiresPivoting) {
  // [[0, 1], [1, 0]]: structural zero on the first diagonal.
  const auto m =
      CscMatrix::from_triplets(2, 2, {{0, 1, 1.0}, {1, 0, 1.0}});
  const SparseLU lu(m);
  const auto x = lu.solve({3.0, 5.0});
  EXPECT_NEAR(x[0], 5.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

TEST(SparseLU, SingularThrows) {
  const auto m = CscMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {1, 1, 4.0}});
  EXPECT_THROW(SparseLU{m}, std::runtime_error);
}

TEST(SparseLU, SingularWithStaleDiagonalCandidateThrows) {
  // Regression: two identical rows (a contradictory ideal-voltage-source
  // loop in MNA form).  The diagonal-preference pivot check used to read a
  // stale x[k] from the previous column for a row OUTSIDE the current
  // pattern, silently "solving" this singular system.
  const auto m = CscMatrix::from_triplets(
      3, 3,
      {{0, 0, 1e-12}, {1, 0, 1.0}, {2, 0, 1.0}, {0, 1, 1.0}, {0, 2, 1.0}});
  EXPECT_THROW(SparseLU{m}, std::runtime_error);
}

TEST(SparseLU, StructurallySingularThrows) {
  // Empty column 1.
  const auto m = CscMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW(SparseLU{m}, std::runtime_error);
}

TEST(SparseLU, MatchesDenseOnRandomSparseSystems) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::uniform_int_distribution<int> idx(0, 39);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 40;
    MatrixD a(n, n);
    for (int i = 0; i < n; ++i) a(i, i) = 4.0 + val(rng);
    for (int e = 0; e < 6 * n; ++e) a(idx(rng), idx(rng)) = val(rng);
    std::vector<double> xref(n);
    for (auto& v : xref) v = val(rng);
    const auto b = a.multiply(xref);

    const SparseLU slu(dense_to_csc(a));
    const auto xs = slu.solve(b);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(xs[i], xref[i], 1e-8) << "trial " << trial << " i " << i;
    }
  }
}

TEST(SparseLU, LadderStructureLowFill) {
  // Tridiagonal ladder (the dominant structure in the RLC line circuits):
  // fill-in should stay essentially zero.
  const int n = 200;
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i) {
    t.push_back({i, i, 2.1});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  const auto m = CscMatrix::from_triplets(n, n, t);
  const SparseLU lu(m);
  EXPECT_LE(lu.l_nnz(), 2 * n);  // unit diag + one subdiagonal
  EXPECT_LE(lu.u_nnz(), 2 * n);
  // Spot-check the solve against a known vector.
  std::vector<double> xref(n, 1.0);
  const auto b = m.multiply(xref);
  const auto x = lu.solve(b);
  for (int i = 0; i < n; i += 17) EXPECT_NEAR(x[i], 1.0, 1e-10);
}

TEST(SparseLU, ThresholdPivotingStillAccurate) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  const int n = 30;
  MatrixD a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = val(rng);
    a(i, i) += 5.0;
  }
  std::vector<double> xref(n, 0.5);
  const auto b = a.multiply(xref);
  const SparseLU lu(dense_to_csc(a), /*pivot_tol=*/0.1);
  const auto x = lu.solve(b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], 0.5, 1e-8);
}

TEST(SparseLU, RefactorMatchesFreshFactorization) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  const int n = 35;
  MatrixD a(n, n);
  for (int i = 0; i < n; ++i) {
    a(i, i) = 5.0 + val(rng);
    a(i, (i + 3) % n) = val(rng);
    a((i + 7) % n, i) = val(rng);
  }
  const auto m1 = dense_to_csc(a);
  SparseLU lu(m1);
  // Same pattern, new values.
  MatrixD b = a;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (b(i, j) != 0.0) b(i, j) *= (1.0 + 0.1 * val(rng));
    }
  }
  const auto m2 = dense_to_csc(b);
  ASSERT_EQ(m2.nnz(), m1.nnz());
  ASSERT_TRUE(lu.refactor(m2));
  std::vector<double> xref(n);
  for (auto& v : xref) v = val(rng);
  const auto rhs = b.multiply(xref);
  const auto x = lu.solve(rhs);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-8) << i;
}

TEST(SparseLU, RefactorRepeatedlyStaysAccurate) {
  // MNA usage pattern: many refactorizations of a drifting matrix.
  const int n = 60;
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i) {
    t.push_back({i, i, 3.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  auto m = CscMatrix::from_triplets(n, n, t);
  SparseLU lu(m);
  std::vector<double> xref(n, 1.0);
  for (int round = 1; round <= 20; ++round) {
    for (auto& v : m.values()) {
      if (v > 0.0) v = 3.0 + 0.05 * round;  // diagonal drift
    }
    ASSERT_TRUE(lu.refactor(m)) << round;
    const auto b = m.multiply(xref);
    const auto x = lu.solve(b);
    for (int i = 0; i < n; i += 13) EXPECT_NEAR(x[i], 1.0, 1e-10) << round;
  }
}

TEST(SparseLU, RefactorSignalsPivotCollapse) {
  // Factor with a healthy diagonal, then zero the entry the pivot order
  // relies on: refactor must refuse rather than divide by ~0.
  const auto m1 = CscMatrix::from_triplets(
      2, 2, {{0, 0, 4.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 4.0}});
  SparseLU lu(m1);
  const auto m2 = CscMatrix::from_triplets(
      2, 2, {{0, 0, 0.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 4.0}});
  EXPECT_FALSE(lu.refactor(m2));
}

TEST(SparseLU, PartialRefactorMatchesFreshFactorization) {
  // A' differs from A only in columns >= first_col (any rows): refactoring
  // just those columns must solve like a fresh factorization of A'.
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  const int n = 40;
  MatrixD a(n, n);
  for (int i = 0; i < n; ++i) {
    a(i, i) = 6.0 + val(rng);
    a(i, (i + 5) % n) = val(rng);
    a((i + 11) % n, i) = val(rng);
    a((3 * i + 1) % n, i) = val(rng);
  }
  const auto m = dense_to_csc(a);
  std::vector<double> b(n);
  for (auto& v : b) v = val(rng);
  for (const int first_col : {0, 1, 17, n - 11, n - 1}) {
    SparseLU lu(m);
    MatrixD a2 = a;
    for (int j = first_col; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        if (a2(i, j) != 0.0) a2(i, j) *= 1.0 + 0.2 * val(rng);
      }
    }
    auto m2 = m;  // same pattern, values of a2
    for (int j = 0; j < n; ++j) {
      for (int p = m2.col_ptr()[j]; p < m2.col_ptr()[j + 1]; ++p) {
        m2.values()[p] = a2(m2.row_idx()[p], j);
      }
    }
    ASSERT_TRUE(lu.refactor(m2, first_col)) << first_col;
    std::vector<double> x;
    lu.solve(b, x);
    const auto x_fresh = SparseLU(m2).solve(b);
    double scale = 0.0;
    for (double v : x_fresh) scale = std::max(scale, std::abs(v));
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], x_fresh[i], 1e-12 * scale) << first_col << " " << i;
    }
  }
}

TEST(SparseLU, PartialRefactorTrailingPivotCollapseFallsBackToFullFactor) {
  // Pivot order from A: column 1 pivots on row 1.  A' changes only columns
  // 1 and 2 and zeroes that pivot, so refactor(A', 1) must refuse; a fresh
  // factorization re-pivots (row 2) and solves A' exactly.
  const auto m = CscMatrix::from_triplets(
      3, 3, {{0, 0, 4.0}, {1, 1, 4.0}, {2, 1, 1.0}, {1, 2, 1.0}, {2, 2, 4.0}});
  const auto m2 = CscMatrix::from_triplets(
      3, 3, {{0, 0, 4.0}, {1, 1, 0.0}, {2, 1, 1.0}, {1, 2, 1.0}, {2, 2, 4.0}});
  ASSERT_EQ(m.nnz(), m2.nnz());
  SparseLU lu(m);
  EXPECT_FALSE(lu.refactor(m2, 1));
  const std::vector<double> xref{1.0, -2.0, 3.0};
  const auto x = SparseLU(m2).solve(m2.multiply(xref));
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x[i], xref[i], 1e-14) << i;
  // A call that fails at column 2 has already overwritten column 1; the
  // next refactor recomputes it even when it names a later first column.
  const auto m3 = CscMatrix::from_triplets(
      3, 3, {{0, 0, 4.0}, {1, 1, 2.0}, {2, 1, 1.0}, {1, 2, 1.0}, {2, 2, 0.5}});
  SparseLU lu2(m);
  EXPECT_FALSE(lu2.refactor(m3, 1));
  ASSERT_TRUE(lu2.refactor(m, 3));
  const auto xa = lu2.solve(m.multiply(xref));
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(xa[i], xref[i], 1e-14) << i;
}

TEST(SparseLU, RefactorFromLastColumnIsNoOp) {
  const auto m = CscMatrix::from_triplets(
      3, 3, {{0, 0, 4.0}, {1, 0, 1.0}, {1, 1, 3.0}, {2, 1, 1.0}, {2, 2, 5.0}});
  SparseLU lu(m);
  const std::vector<double> b{1.0, 2.0, 3.0};
  const auto before = lu.solve(b);
  auto m2 = m;
  for (auto& v : m2.values()) v *= 2.0;  // differs in every column
  ASSERT_TRUE(lu.refactor(m2, 3));
  EXPECT_EQ(lu.solve(b), before);
  EXPECT_THROW(lu.refactor(m2, 4), std::invalid_argument);
  EXPECT_THROW(lu.refactor(m2, -1), std::invalid_argument);
}

TEST(SparseLU, RefactorSizeMismatchThrows) {
  const auto m = CscMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  SparseLU lu(m);
  const auto bad = CscMatrix::from_triplets(3, 3, {{0, 0, 1.0}, {1, 1, 1.0},
                                                   {2, 2, 1.0}});
  EXPECT_THROW(lu.refactor(bad), std::invalid_argument);
}

TEST(SparseLU, RejectsBadInputs) {
  const auto rect = CscMatrix::from_triplets(2, 3, {{0, 0, 1.0}});
  EXPECT_THROW(SparseLU{rect}, std::invalid_argument);
  const auto ok = CscMatrix::from_triplets(1, 1, {{0, 0, 1.0}});
  EXPECT_THROW(SparseLU(ok, 0.0), std::invalid_argument);
  EXPECT_THROW(SparseLU(ok, 1.5), std::invalid_argument);
  const SparseLU lu(ok);
  EXPECT_THROW(lu.solve({1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace rlc::linalg

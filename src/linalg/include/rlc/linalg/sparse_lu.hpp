#pragma once

/// \file sparse_lu.hpp
/// Left-looking (Gilbert–Peierls) sparse LU with threshold partial pivoting,
/// in the style of CSparse's cs_lu.  This is the workhorse behind the MNA
/// circuit solver: transient analysis refactorizes at every Newton iteration,
/// and the factorization cost is proportional to the number of floating-point
/// operations actually performed (important for the ladder-structured RLC
/// circuits in this repo, which factor with almost no fill-in).

#include <vector>

#include "rlc/linalg/sparse.hpp"

namespace rlc::linalg {

class SparseLU {
 public:
  /// Factor A.  `pivot_tol` in (0, 1]: 1.0 = full partial pivoting,
  /// smaller values prefer sparsity-preserving diagonal pivots.
  /// Throws std::runtime_error if A is singular to working precision.
  explicit SparseLU(const CscMatrix& A, double pivot_tol = 1.0);

  /// Solve A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;
  /// Solve A x = b into a caller-owned buffer (resized to n), so a solver
  /// loop reuses one allocation.  `x` must not alias `b`.
  void solve(const std::vector<double>& b, std::vector<double>& x) const;

  /// Numeric-only refactorization: reuse the pivot order and the symbolic
  /// pattern of the original factorization for a matrix with the SAME
  /// sparsity pattern but new values (each Newton iteration of a transient
  /// run).  Skips the DFS, the pivot search and all allocation.
  ///
  /// `first_col` in [0, n] is the first column of A that may differ from
  /// the matrix these factors currently hold.  The factorization is
  /// left-looking, so the L/U columns before `first_col` depend only on
  /// A's columns before it and are kept as they are; only columns
  /// first_col..n-1 are recomputed (first_col == n is a no-op).  Valid
  /// only if A agrees with the last successfully factored matrix in every
  /// column before `first_col`; entries in later columns, in any row, may
  /// change freely.
  ///
  /// Returns false — leaving the factors unusable — if a pivot shrinks
  /// below `pivot_floor` times its column's magnitude, in which case the
  /// caller should factor from scratch to re-pivot.  (A later refactor
  /// still recomputes every column a failed call left stale.)
  bool refactor(const CscMatrix& A, int first_col = 0,
                double pivot_floor = 1e-10);

  int size() const { return n_; }
  int l_nnz() const { return static_cast<int>(l_values_.size()); }
  int u_nnz() const { return static_cast<int>(u_values_.size()); }

 private:
  int n_ = 0;
  // L (unit diagonal stored explicitly) and U (diagonal last in column).
  std::vector<int> l_colptr_, l_rowidx_;
  std::vector<double> l_values_;
  std::vector<int> u_colptr_, u_rowidx_;
  std::vector<double> u_values_;
  std::vector<int> pinv_;  // row i of A is row pinv_[i] of PA
  // Cached symbolic information for refactor(): per-column reach pattern in
  // topological order (original row indices), the chosen pivot row, and L's
  // row indices in original coordinates.
  std::vector<int> pat_ptr_, pat_idx_;
  std::vector<int> pivot_row_;
  std::vector<int> l_rowidx_orig_;
  // Dense scatter vector for refactor(), allocated once.
  std::vector<double> work_;
  // First column a failed refactor() may have left stale (n_ when none).
  int stale_col_ = 0;
};

}  // namespace rlc::linalg

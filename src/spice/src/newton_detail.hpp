#pragma once

/// Internal shared Newton machinery for the DC and transient analyses.
///
/// Incremental assembly.  Between two Newton iterations of one time step
/// only the nonlinear devices' stamps move, and between two steps with the
/// same (analysis, integrator, dt, gmin) the linear devices' matrix entries
/// do not move at all.  The workspace exploits both:
///
///   * Solver-internal ordering.  The MNA matrix is factored under a
///     symmetric permutation that puts every unknown touched by a nonlinear
///     stamp last (public unknowns keep their relative order inside each
///     group).  The permutation is internal: stamps, right-hand sides and
///     solutions are in the public ordering of device.hpp.
///   * Linear-stamp reuse.  Linear devices are stamped once per step; their
///     matrix entries are scattered over the pattern only when the key
///     (analysis, integrator, dt, gmin) changes, otherwise they are
///     restamped right-hand-side-only.  Each iteration copies the cached
///     linear values and adds the nonlinear stamps on top.  This relies on
///     Device::nonlinear() being truthful.
///   * Partial refactor.  With the linear values unchanged since the last
///     factorization, every column before the first nonlinear one is
///     unchanged, so SparseLU::refactor recomputes only the trailing
///     columns.
///
/// `SolveWorkspace::incremental = false` keeps the reference path: every
/// device stamped on every iteration, natural ordering, every column
/// refactored.

#include <memory>
#include <optional>
#include <vector>

#include "rlc/linalg/sparse.hpp"
#include "rlc/linalg/sparse_lu.hpp"
#include "rlc/spice/circuit.hpp"

namespace rlc::spice::detail {

struct NewtonSettings {
  int max_iterations = 100;
  double reltol = 1e-6;
  double abstol_v = 1e-9;   ///< node-voltage convergence floor [V]
  double abstol_i = 1e-12;  ///< branch-current convergence floor [A]
  double max_voltage_step = 1.0;  ///< per-iteration clamp on node updates [V]
  double gshunt = 1e-12;    ///< node-to-ground conductance for robustness
};

struct NewtonOutcome {
  bool converged = false;
  int iterations = 0;
};

/// What the cached linear matrix values were stamped for.
struct LinearKey {
  Analysis analysis = Analysis::kDc;
  Integrator method = Integrator::kTrapezoidal;
  double dt = 0.0;
  double gmin = 0.0;
  bool operator==(const LinearKey&) const = default;
};

/// Reusable state across Newton iterations and time steps of one analysis
/// (the MNA sparsity pattern is stable within it).  On destruction it adds
/// its factorization counts to the obs::Registry counters
/// linalg.lu.{full_factorizations,refactorizations,refactor_columns}.
struct SolveWorkspace {
  explicit SolveWorkspace(bool incremental_assembly = true)
      : incremental(incremental_assembly) {}
  ~SolveWorkspace();
  SolveWorkspace(const SolveWorkspace&) = delete;
  SolveWorkspace& operator=(const SolveWorkspace&) = delete;

  bool incremental = true;

  // Devices split by Device::nonlinear(), on first use.
  bool devices_split = false;
  std::vector<const Device*> linear_devices, nonlinear_devices;

  // Linear part: matrix stamped per key, right-hand side per step.
  std::optional<LinearKey> linear_key;
  std::vector<rlc::linalg::Triplet> linear_triplets;
  std::vector<double> linear_rhs;
  std::vector<double> linear_values;  ///< linear stamps over matrix's pattern
  bool linear_values_stale = true;

  // Nonlinear part, stamped every iteration.
  std::vector<rlc::linalg::Triplet> nonlinear_triplets;

  // Solver ordering and pattern (rebuilt when either triplet structure
  // changes): perm[i] is public unknown i's solver column.
  bool pattern_valid = false;
  std::vector<int> linear_structure, nonlinear_structure;  ///< (row, col) pairs
  std::vector<int> perm;
  int first_nonlinear_col = 0;
  rlc::linalg::CscMatrix matrix;
  std::vector<int> linear_slot, nonlinear_slot;  ///< triplet -> value slot

  std::unique_ptr<rlc::linalg::SparseLU> lu;
  bool lu_has_linear_values = false;  ///< lu's leading columns are current

  // Per-iteration buffers.
  std::vector<double> rhs, b, y, x_new;

  // Reference path state.
  rlc::linalg::TripletCompressor compressor;
  std::vector<rlc::linalg::Triplet> triplets;

  long full_factorizations = 0;
  long refactorizations = 0;
  long refactor_columns = 0;
};

/// Assemble the MNA system at the context's iterate and solve it once,
/// reusing the workspace's cached stamps and factors where valid (the
/// linear stamps come from the step's newton_solve).  Returns the raw
/// solution of A x = z in the public ordering (not an increment), held in
/// ws.x_new.
const std::vector<double>& assemble_and_solve(const Circuit& ckt,
                                              const StampContext& ctx,
                                              double gshunt,
                                              SolveWorkspace& ws);

/// Newton-Raphson on the circuit equations with the given base context
/// (analysis type, time, dt, gmin, source_scale are taken from `ctx`).
/// `x` holds the initial guess on entry and the solution on success.
NewtonOutcome newton_solve(const Circuit& ckt, StampContext ctx,
                           const NewtonSettings& st, int n_node_unknowns,
                           std::vector<double>& x, SolveWorkspace& ws);

}  // namespace rlc::spice::detail

#include "newton_detail.hpp"

#include <algorithm>
#include <cmath>

#include "rlc/obs/metrics.hpp"

namespace rlc::spice::detail {

namespace {

using rlc::linalg::Triplet;

bool same_structure(const std::vector<Triplet>& t,
                    const std::vector<int>& structure) {
  if (structure.size() != 2 * t.size()) return false;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].row != structure[2 * i] || t[i].col != structure[2 * i + 1]) {
      return false;
    }
  }
  return true;
}

void record_structure(const std::vector<Triplet>& t,
                      std::vector<int>& structure) {
  structure.clear();
  for (const auto& e : t) {
    structure.push_back(e.row);
    structure.push_back(e.col);
  }
}

/// Robustness shunt on every node voltage unknown (not branch rows), plus
/// the DC gmin convergence aid.
void add_node_shunts(const Circuit& ckt, const StampContext& ctx,
                     double gshunt, std::vector<Triplet>& triplets) {
  const double gdiag = gshunt + ctx.gmin;
  if (gdiag > 0.0) {
    const int n_nodes = ckt.node_count() - 1;
    for (int i = 0; i < n_nodes; ++i) triplets.push_back({i, i, gdiag});
  }
}

/// Solver ordering (nonlinear unknowns last), the permuted CSC pattern of
/// linear + nonlinear stamps, and each triplet's value slot in it.
void rebuild_pattern(int n, SolveWorkspace& ws) {
  std::vector<char> nonlinear(n, 0);
  for (const auto& t : ws.nonlinear_triplets) {
    nonlinear[t.row] = nonlinear[t.col] = 1;
  }
  ws.perm.resize(n);
  int next = 0;
  for (int i = 0; i < n; ++i) {
    if (!nonlinear[i]) ws.perm[i] = next++;
  }
  ws.first_nonlinear_col = next;
  for (int i = 0; i < n; ++i) {
    if (nonlinear[i]) ws.perm[i] = next++;
  }

  std::vector<Triplet> all;
  all.reserve(ws.linear_triplets.size() + ws.nonlinear_triplets.size());
  for (const auto* part : {&ws.linear_triplets, &ws.nonlinear_triplets}) {
    for (const auto& t : *part) {
      all.push_back({ws.perm[t.row], ws.perm[t.col], 0.0});
    }
  }
  ws.matrix = rlc::linalg::CscMatrix::from_triplets(n, n, all);
  const auto& cp = ws.matrix.col_ptr();
  const auto& ri = ws.matrix.row_idx();
  const auto slots = [&](const std::vector<Triplet>& part,
                         std::vector<int>& slot) {
    slot.clear();
    for (const auto& t : part) {
      const int col = ws.perm[t.col];
      const auto begin = ri.begin() + cp[col];
      const auto end = ri.begin() + cp[col + 1];
      slot.push_back(static_cast<int>(
          std::lower_bound(begin, end, ws.perm[t.row]) - ri.begin()));
    }
  };
  slots(ws.linear_triplets, ws.linear_slot);
  slots(ws.nonlinear_triplets, ws.nonlinear_slot);
  ws.linear_values.assign(ws.matrix.nnz(), 0.0);
  ws.linear_values_stale = true;
  ws.b.assign(n, 0.0);
  ws.lu.reset();
  ws.pattern_valid = true;
}

/// The reference path: stamp everything, natural ordering, refactor every
/// column (fresh factorization when the pattern or the pivots change).
void assemble_and_factor_reference(const Circuit& ckt, const StampContext& ctx,
                                   double gshunt, SolveWorkspace& ws) {
  const int n = ckt.unknown_count();
  ws.triplets.clear();
  ws.rhs.assign(n, 0.0);
  Stamper st(ws.triplets, ws.rhs);
  for (const auto& dev : ckt.devices()) dev->stamp(ctx, st);
  add_node_shunts(ckt, ctx, gshunt, ws.triplets);
  const auto& A = ws.compressor.compress(n, n, ws.triplets);
  if (ws.lu != nullptr && ws.compressor.reused() && ws.lu->size() == n &&
      ws.lu->refactor(A)) {
    ++ws.refactorizations;
    ws.refactor_columns += n;
  } else {
    ws.lu = std::make_unique<rlc::linalg::SparseLU>(A);
    ++ws.full_factorizations;
  }
}

/// Stamp the linear devices for a new step: matrix entries only when the
/// context's LinearKey changed, the right-hand side always.  A no-op on the
/// reference path beyond splitting the devices.
void begin_step(const Circuit& ckt, const StampContext& ctx, double gshunt,
                SolveWorkspace& ws) {
  if (!ws.devices_split) {
    for (const auto& dev : ckt.devices()) {
      (dev->nonlinear() ? ws.nonlinear_devices : ws.linear_devices)
          .push_back(dev.get());
    }
    ws.devices_split = true;
  }
  if (!ws.incremental) return;
  ws.linear_rhs.assign(ckt.unknown_count(), 0.0);
  const LinearKey key{ctx.analysis, ctx.method, ctx.dt, ctx.gmin};
  if (ws.linear_key == key) {
    Stamper st(ws.linear_rhs);
    for (const Device* dev : ws.linear_devices) dev->stamp(ctx, st);
    return;
  }
  ws.linear_key = key;
  ws.linear_triplets.clear();
  Stamper st(ws.linear_triplets, ws.linear_rhs);
  for (const Device* dev : ws.linear_devices) dev->stamp(ctx, st);
  add_node_shunts(ckt, ctx, gshunt, ws.linear_triplets);
  if (!same_structure(ws.linear_triplets, ws.linear_structure)) {
    record_structure(ws.linear_triplets, ws.linear_structure);
    ws.pattern_valid = false;
  }
  ws.linear_values_stale = true;
}

}  // namespace

SolveWorkspace::~SolveWorkspace() {
  auto& reg = rlc::obs::Registry::global();
  static const int kFull = reg.counter("linalg.lu.full_factorizations");
  static const int kRefactor = reg.counter("linalg.lu.refactorizations");
  static const int kColumns = reg.counter("linalg.lu.refactor_columns");
  reg.add(kFull, full_factorizations);
  reg.add(kRefactor, refactorizations);
  reg.add(kColumns, refactor_columns);
}

const std::vector<double>& assemble_and_solve(const Circuit& ckt,
                                              const StampContext& ctx,
                                              double gshunt,
                                              SolveWorkspace& ws) {
  const int n = ckt.unknown_count();
  if (!ws.incremental) {
    assemble_and_factor_reference(ckt, ctx, gshunt, ws);
    ws.lu->solve(ws.rhs, ws.x_new);
    return ws.x_new;
  }

  ws.rhs = ws.linear_rhs;
  ws.nonlinear_triplets.clear();
  Stamper st(ws.nonlinear_triplets, ws.rhs);
  for (const Device* dev : ws.nonlinear_devices) dev->stamp(ctx, st);
  if (!same_structure(ws.nonlinear_triplets, ws.nonlinear_structure)) {
    record_structure(ws.nonlinear_triplets, ws.nonlinear_structure);
    ws.pattern_valid = false;
  }
  if (!ws.pattern_valid) rebuild_pattern(n, ws);

  if (ws.linear_values_stale) {
    std::fill(ws.linear_values.begin(), ws.linear_values.end(), 0.0);
    for (std::size_t k = 0; k < ws.linear_triplets.size(); ++k) {
      ws.linear_values[ws.linear_slot[k]] += ws.linear_triplets[k].value;
    }
    ws.linear_values_stale = false;
    ws.lu_has_linear_values = false;
  }
  auto& values = ws.matrix.values();
  std::copy(ws.linear_values.begin(), ws.linear_values.end(), values.begin());
  for (std::size_t k = 0; k < ws.nonlinear_triplets.size(); ++k) {
    values[ws.nonlinear_slot[k]] += ws.nonlinear_triplets[k].value;
  }

  // Only the nonlinear (trailing) columns changed since the last
  // factorization unless the linear values were just rescattered.  Fall
  // back to a fresh factorization (with fresh pivoting) when the cached
  // pivot order is no longer stable.
  const int first_col = ws.lu_has_linear_values ? ws.first_nonlinear_col : 0;
  if (ws.lu != nullptr && ws.lu->refactor(ws.matrix, first_col)) {
    ++ws.refactorizations;
    ws.refactor_columns += n - first_col;
  } else {
    ws.lu = std::make_unique<rlc::linalg::SparseLU>(ws.matrix);
    ++ws.full_factorizations;
  }
  ws.lu_has_linear_values = true;

  for (int i = 0; i < n; ++i) ws.b[ws.perm[i]] = ws.rhs[i];
  ws.lu->solve(ws.b, ws.y);
  ws.x_new.resize(n);
  for (int i = 0; i < n; ++i) ws.x_new[i] = ws.y[ws.perm[i]];
  return ws.x_new;
}

NewtonOutcome newton_solve(const Circuit& ckt, StampContext ctx,
                           const NewtonSettings& st, int n_node_unknowns,
                           std::vector<double>& x, SolveWorkspace& ws) {
  NewtonOutcome out;
  begin_step(ckt, ctx, st.gshunt, ws);
  const bool nonlinear = !ws.nonlinear_devices.empty();
  for (int it = 0; it < st.max_iterations; ++it) {
    out.iterations = it + 1;
    ctx.x = &x;
    const std::vector<double>& x_new =
        assemble_and_solve(ckt, ctx, st.gshunt, ws);
    bool finite = true;
    for (double v : x_new) {
      if (!std::isfinite(v)) {
        finite = false;
        break;
      }
    }
    if (!finite) return out;  // diverged
    if (!nonlinear) {
      // Linear system: one solve is exact.
      x.swap(ws.x_new);
      out.converged = true;
      return out;
    }
    // Convergence test on the update, then damp (clamp) node voltages.
    bool converged = true;
    const std::size_t n = x.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = x_new[i] - x[i];
      const bool is_node = static_cast<int>(i) < n_node_unknowns;
      const double abstol = is_node ? st.abstol_v : st.abstol_i;
      if (std::abs(delta) > abstol + st.reltol * std::abs(x_new[i])) {
        converged = false;
      }
    }
    if (converged) {
      x.swap(ws.x_new);
      out.converged = true;
      return out;
    }
    for (std::size_t i = 0; i < n; ++i) {
      double delta = x_new[i] - x[i];
      if (static_cast<int>(i) < n_node_unknowns) {
        delta = std::clamp(delta, -st.max_voltage_step, st.max_voltage_step);
      }
      x[i] += delta;
    }
  }
  return out;
}

}  // namespace rlc::spice::detail

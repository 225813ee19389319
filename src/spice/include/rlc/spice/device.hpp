#pragma once

/// \file device.hpp
/// The device abstraction of the MNA circuit engine.  Unknown ordering:
/// node voltages first (node n > 0 maps to unknown n - 1; node 0 is ground),
/// then one current unknown per device "branch" (voltage sources and
/// inductors).  Devices contribute to the system via stamps; dynamic devices
/// keep companion-model history that is advanced by commit_step().
///
/// That ordering is the public one (probes, initial_voltages, DcResult::x).
/// Inside the Newton solver the matrix is symmetrically permuted so the
/// unknowns touched by nonlinear stamps come last, and a linear device's
/// matrix stamp is computed once per (analysis, integrator, dt, gmin) and
/// reused across Newton iterations and time steps; only its right-hand side
/// is restamped each step.  Both rest on Device::nonlinear() being
/// truthful: a device whose matrix entries depend on the iterate, or on
/// anything else that changes between steps (time, history), must report
/// nonlinear() == true.

#include <complex>
#include <string>
#include <vector>

#include "rlc/linalg/matrix.hpp"
#include "rlc/linalg/sparse.hpp"

namespace rlc::spice {

using NodeId = int;  ///< 0 is ground

enum class Analysis { kDc, kTransient };
enum class Integrator { kTrapezoidal, kBackwardEuler };

/// Everything a device needs to know to stamp itself.
struct StampContext {
  Analysis analysis = Analysis::kDc;
  Integrator method = Integrator::kTrapezoidal;
  double time = 0.0;  ///< time being solved for (end of the step)
  double dt = 0.0;    ///< step size (transient only)
  const std::vector<double>* x = nullptr;  ///< current Newton iterate
  double gmin = 0.0;          ///< convergence-aid shunt (DC gmin stepping)
  double source_scale = 1.0;  ///< source stepping homotopy factor

  /// Voltage of node n in the current iterate (0 for ground).
  double v(NodeId n) const { return n == 0 ? 0.0 : (*x)[n - 1]; }
  /// Value of unknown `i` (nodes and branches alike).
  double unknown(int i) const { return (*x)[i]; }
};

/// Collects matrix triplets and the right-hand side.  Row/column index -1
/// denotes ground and is ignored, so device stamp code needs no special
/// cases for grounded terminals.
class Stamper {
 public:
  Stamper(std::vector<rlc::linalg::Triplet>& triplets, std::vector<double>& rhs)
      : triplets_(&triplets), rhs_(rhs) {}
  /// Right-hand-side-only stamper: matrix entries are dropped.  The
  /// transient solver uses it to refresh linear devices' history and source
  /// terms while their cached matrix values stay valid.
  explicit Stamper(std::vector<double>& rhs) : triplets_(nullptr), rhs_(rhs) {}

  /// Matrix entry A(row, col) += value.
  void add(int row, int col, double value) {
    if (row < 0 || col < 0 || triplets_ == nullptr) return;
    append(row, col, value);
  }
  /// Right-hand side z(row) += value.
  void add_rhs(int row, double value) {
    if (row < 0) return;
    rhs_[row] += value;
  }

  /// Unknown index of node n (-1 for ground).
  static int unk(NodeId n) { return n - 1; }

 private:
  // Out of line so add()'s checks inline into every device stamp: a
  // right-hand-side-only pass then makes no calls for matrix entries.
  void append(int row, int col, double value);
  std::vector<rlc::linalg::Triplet>* triplets_;
  std::vector<double>& rhs_;
};

/// Context for small-signal AC stamping: angular frequency and the DC
/// operating point nonlinear devices linearize around.
struct AcContext {
  double omega = 0.0;
  const std::vector<double>* op = nullptr;  ///< DC operating point

  double v_op(NodeId n) const {
    return (n == 0 || op == nullptr) ? 0.0 : (*op)[n - 1];
  }
};

/// Complex-valued stamper for the AC (dense) MNA system.  Index -1 denotes
/// ground, as in Stamper.
class AcStamper {
 public:
  AcStamper(rlc::linalg::MatrixC& a, std::vector<std::complex<double>>& rhs)
      : a_(a), rhs_(rhs) {}
  void add(int row, int col, std::complex<double> value) {
    if (row < 0 || col < 0) return;
    a_(row, col) += value;
  }
  void add_rhs(int row, std::complex<double> value) {
    if (row < 0) return;
    rhs_[row] += value;
  }

 private:
  rlc::linalg::MatrixC& a_;
  std::vector<std::complex<double>>& rhs_;
};

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Number of extra current unknowns this device introduces.
  virtual int branch_count() const { return 0; }
  /// Index of the device's first branch unknown (set by Circuit::finalize).
  void set_branch_base(int base) { branch_base_ = base; }
  int branch_base() const { return branch_base_; }

  /// True if the stamp depends on the current iterate (requires Newton).
  /// A linear device's matrix entries may depend only on the analysis, the
  /// integrator, dt and gmin (see the file comment: the solver caches them).
  virtual bool nonlinear() const { return false; }

  /// Contribute to the MNA system for the given context.
  virtual void stamp(const StampContext& ctx, Stamper& st) const = 0;

  /// Accept ctx.x as the solution at ctx.time; advance companion history.
  virtual void commit_step(const StampContext& ctx) { (void)ctx; }

  /// Initialize history from the t = 0 state in ctx.x (UIC start or DC op).
  virtual void init_history(const StampContext& ctx) { (void)ctx; }

  /// Contribute to the small-signal AC system at the given frequency,
  /// linearized around ctx.op.  Every built-in device implements this;
  /// the default rejects devices without an AC model so a missing override
  /// cannot silently produce wrong frequency responses.
  virtual void stamp_ac(const AcContext& ctx, AcStamper& st) const;

 private:
  std::string name_;
  int branch_base_ = -1;
};

}  // namespace rlc::spice

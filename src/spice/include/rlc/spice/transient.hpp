#pragma once

/// \file transient.hpp
/// Transient analysis: trapezoidal (default) or backward-Euler integration
/// with per-step Newton iteration, automatic step halving on Newton failure,
/// and backward-Euler startup steps to damp the trapezoidal rule's response
/// to inconsistent initial conditions.

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rlc/spice/circuit.hpp"

namespace rlc::spice {

/// What to record during the run.  Recording everything is fine for small
/// circuits; ladder-line circuits with 10^5 steps should probe selectively.
struct Probe {
  enum class Kind { kNodeVoltage, kBranchCurrent, kResistorCurrent };
  Kind kind = Kind::kNodeVoltage;
  NodeId node = 0;
  const Device* device = nullptr;
  std::string label;

  static Probe node_voltage(NodeId n, std::string label) {
    return {Kind::kNodeVoltage, n, nullptr, std::move(label)};
  }
  /// Current through a device that owns a branch unknown (VSource/Inductor).
  static Probe branch_current(const Device& d, std::string label) {
    return {Kind::kBranchCurrent, 0, &d, std::move(label)};
  }
  static Probe resistor_current(const Resistor& r, std::string label) {
    return {Kind::kResistorCurrent, 0, &r, std::move(label)};
  }
};

struct TransientOptions {
  double tstop = 0.0;
  double dt = 0.0;              ///< base (maximum) step
  double record_start = 0.0;    ///< discard samples before this time
  Integrator method = Integrator::kTrapezoidal;
  int be_startup_steps = 2;     ///< backward-Euler steps at t = 0

  bool start_from_dc = false;   ///< false: UIC start from initial_voltages
  std::vector<std::pair<NodeId, double>> initial_voltages;

  int max_newton = 60;
  double reltol = 1e-4;
  double abstol_v = 1e-6;
  double abstol_i = 1e-9;
  double max_voltage_step = 1.0;
  int max_step_halvings = 12;

  std::vector<Probe> probes;    ///< empty: record every node voltage

  /// Incremental MNA assembly (see the device.hpp file comment): linear
  /// stamps reused across Newton iterations and steps, nonlinear unknowns
  /// ordered last inside the solver, and only the trailing LU columns
  /// refactored.  false restamps every device and refactors every column
  /// on each Newton iteration, in the public unknown order — the reference
  /// the incremental path is tested against.  Results agree to rounding.
  bool incremental_assembly = true;
};

struct TransientResult {
  std::vector<double> time;
  std::vector<std::string> labels;
  std::vector<std::vector<double>> signals;  ///< signals[probe][sample]
  bool completed = false;
  long steps_accepted = 0;
  long steps_rejected = 0;
  long newton_iterations = 0;

  /// Signal by label; throws std::out_of_range if unknown.
  const std::vector<double>& signal(const std::string& label) const;
};

/// Run a transient analysis.  Throws std::invalid_argument on bad options
/// and std::runtime_error if the initial DC solve (when requested) fails.
/// Each run adds its accepted steps, rejected steps and Newton iterations
/// to the obs::Registry counters
/// spice.transient.{steps,rejected_steps,newton_iters}.
TransientResult run_transient(Circuit& ckt, const TransientOptions& opts);

}  // namespace rlc::spice

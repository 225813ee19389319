#pragma once

/// \file optimize_api.hpp
/// The one optimizer entry point: every sizing question — scalar, coupled
/// bus, noise-budgeted bus, power under a delay slack — is one typed
/// request/response pair, so objectives and constraints compose instead of
/// multiplying entry points:
///
///   OptimizeRequest{objective, l, conductors, coupling, constraints,
///                   domain, optim} -> StatusOr<OptimizeResponse>
///
/// * objective kDelay, conductors == 1: the paper's Newton (h, k) solve
///   (optimize_rlc), bit for bit.
/// * objective kDelay, conductors 2..8: every wire of the symmetric bus
///   gets the same (h, k), sized on the quiet-neighbour effective line, and
///   the answer carries the exact victim noise of the centre-aggressor
///   pattern (centre_aggressor_bus).  A constraints.noise_vmax budget is
///   enforced by an active-set boundary solve in the repeater size; a slack
///   budget returns the unconstrained answer bitwise.
/// * objective kPower minimizes total chain power (power.hpp) subject to a
///   delay-slack constraint delay <= (1 + eps) * T_opt, where T_opt is the
///   delay-optimal delay per unit length: an inner per-k largest-feasible-h
///   boundary solve (Brent root on the upper branch of the U-shaped delay
///   curve) under an outer k-grid scan and Brent refinement.
/// * pareto_front sweeps the same bounded (h, k) domain and returns the
///   non-dominated delay-power set, sorted by delay with strictly
///   decreasing power.
///
/// The (h, k) domain is a bounded log-spaced box around the delay optimum,
/// shared verbatim between the constrained solve, the Pareto sweep and the
/// brute-force cross-checks: the eps = inf solve returns the domain's
/// minimum-power corner using the same grid arithmetic, so it is bitwise
/// the minimum-power grid point (pinned by tests).

#include <vector>

#include "rlc/base/status.hpp"
#include "rlc/core/exact_delay.hpp"
#include "rlc/core/optimizer.hpp"
#include "rlc/core/power.hpp"
#include "rlc/core/technology.hpp"
#include "rlc/exec/thread_pool.hpp"

namespace rlc::core {

enum class Objective { kDelay, kPower };

/// Constraint set of an optimize() call.  Inactive defaults: an infinite
/// delay slack never binds, a zero noise budget means "no budget".
struct OptimizeConstraints {
  /// Power objective: allowed delay degradation over the delay optimum;
  /// the solve enforces delay <= (1 + delay_slack_eps) * T_opt.  0 returns
  /// the delay-optimal point bitwise; +inf (default) reduces to the
  /// unconstrained minimum-power corner of the domain.
  double delay_slack_eps = std::numeric_limits<double>::infinity();

  /// Delay objective with conductors >= 2: budget [V] on the exact victim
  /// peak noise of the centre-aggressor pattern for a unit swing.  0 means
  /// unconstrained.
  double noise_vmax = 0.0;

  bool operator==(const OptimizeConstraints&) const = default;
};

/// Bounded log-spaced (h, k) box around the delay optimum (h_opt, k_opt):
/// grid value i of n is ref * s_min * (s_max / s_min)^(i / (n - 1)).  This
/// is both the feasible domain of the power solve and the Pareto/brute-
/// force grid — sharing it (and its exact arithmetic via log_grid) is what
/// makes the corner cases of the two agree bitwise.
struct OptimizeDomain {
  double h_min_scale = 0.25;  ///< lower h bound, x h_opt
  double h_max_scale = 4.0;   ///< upper h bound, x h_opt
  double k_min_scale = 0.125; ///< lower k bound, x k_opt
  double k_max_scale = 2.0;   ///< upper k bound, x k_opt
  int h_points = 25;          ///< grid columns (>= 2)
  int k_points = 25;          ///< grid rows (>= 2)

  rlc::Status validate() const;

  bool operator==(const OptimizeDomain&) const = default;
};

/// The log-spaced grid shared by the solver and the sweeps: point i is
/// ref * scale_min * (scale_max / scale_min)^(i / (points - 1)).
std::vector<double> log_grid(double ref, double scale_min, double scale_max,
                             int points);

/// One typed optimizer request.  The delay-objective defaults reproduce
/// optimize_rlc(tech, l, optim) bit for bit.
struct OptimizeRequest {
  Objective objective = Objective::kDelay;
  double l = 0.0;                   ///< per-unit-length inductance [H/m]
  std::size_t conductors = 1;       ///< 1 scalar; 2..8 symmetric bus
  double coupling_cc = 0.0;         ///< line-to-line capacitance [F/m]
  double coupling_km = 0.0;         ///< inductive coupling coefficient
  OptimizeConstraints constraints{};
  PowerEnv power{};                 ///< power-objective switching environment
  OptimizeDomain domain{};          ///< power/Pareto (h, k) domain
  OptimOptions optim{};             ///< inner delay-solver options
};

/// Everything one optimize() call produced.  The power and noise blocks
/// are meaningful only when their has_* flag is set (mirroring the wire
/// shape of svc::QueryResult).
struct OptimizeResponse {
  Objective objective = Objective::kDelay;
  OptimResult sizing;               ///< the (h, k) answer and its delay

  bool has_power = false;           ///< power block filled (kPower)
  PowerBreakdown power{};           ///< chain power at the answer [W/m]
  double delay_ref = 0.0;           ///< delay-optimal T_opt [s/m]
  double power_ref = 0.0;           ///< chain power at the delay optimum [W/m]
  bool delay_constraint_active = false;  ///< the slack bound the answer

  bool has_noise = false;           ///< noise block filled (coupled kDelay)
  double peak_noise = 0.0;          ///< exact victim peak noise [V]
  double noise_width = 0.0;         ///< its half-magnitude width [s]
  bool noise_constraint_active = false;  ///< noise_vmax bound the answer
};

/// The crosstalk pattern of every coupled answer: on the symmetric bus of
/// `conductors` wires (tline::symmetric_bus) the centre conductor
/// conductors / 2 switches 0 -> 1 V with every other wire quiet, and the
/// edge conductor 0 is the victim.  optimize() budgets and reports the
/// victim noise of this pattern; a coupled exact delay is the aggressor's.
struct CentreAggressorBus {
  tline::CoupledLine bus;
  CoupledExcitation exc;
  std::size_t aggressor = 0;
  std::size_t victim = 0;
};

CentreAggressorBus centre_aggressor_bus(const tline::LineParams& line,
                                        double cc, double km,
                                        std::size_t conductors);

/// Validate a request without solving: OK or invalid_argument naming the
/// first bad field.
rlc::Status validate_optimize_request(const OptimizeRequest& req);

/// THE entry point.  Never throws; cancellation/deadline surface as
/// cancelled/deadline_exceeded, solver failure as no_convergence.
rlc::StatusOr<OptimizeResponse> optimize(const Technology& tech,
                                         const OptimizeRequest& req);

/// One point of a delay-power front.
struct ParetoPoint {
  double h = 0.0;                 ///< segment length [m]
  double k = 0.0;                 ///< repeater size
  double delay_per_length = 0.0;  ///< [s/m]
  PowerBreakdown power{};         ///< chain power breakdown [W/m]
  double power_per_length = 0.0;  ///< power.total(), kept flat for tables
};

/// Non-dominated (delay, power) set over the request's (h, k) domain grid,
/// sorted by delay ascending with strictly decreasing power.  Grid points
/// whose delay solve does not converge are skipped.  Row evaluation fans
/// over `pool` (default pool when null); results are bit-identical for any
/// thread count (each grid point is solved independently and reduced in
/// index order).
rlc::StatusOr<std::vector<ParetoPoint>> pareto_front(
    const Technology& tech, const OptimizeRequest& req,
    exec::ThreadPool* pool = nullptr);

}  // namespace rlc::core

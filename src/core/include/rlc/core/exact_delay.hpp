#pragma once

/// \file exact_delay.hpp
/// Reference ("exact") time-domain quantities obtained from the full Eq. (1)
/// transfer function by numerical inverse Laplace (fixed Talbot), with no
/// Pade truncation.  Used to quantify the accuracy of the two-pole model
/// (ablation 1) and as the gold standard in integration tests.
///
/// Two execution paths:
///   * the fast exact-waveform ENGINE (default): shared-contour Talbot
///     windows filled by the SoA tline::BatchTransferEvaluator — an
///     N-point waveform costs one set of M transfer evaluations per window
///     instead of N*M, and a threshold delay descends lazily through
///     windows and polishes the crossing with Brent on the window
///     interpolant.  ~10-15x fewer transfer evaluations than the legacy
///     path at matching (<= 1e-3 relative, typically ~1e-9) accuracy;
///   * the LEGACY per-t path (ExactOptions::legacy_bisection, and the
///     plain exact_step_response overload): one full Talbot contour per
///     time point / bisection probe.  Kept as the accuracy reference; the
///     bisection evaluates Eq. (1) through the same batch evaluator as the
///     engine, so both paths share one integrand.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "rlc/core/technology.hpp"
#include "rlc/exec/counters.hpp"
#include "rlc/exec/thread_pool.hpp"
#include "rlc/tline/coupled_line.hpp"
#include "rlc/tline/transfer.hpp"

namespace rlc::core {

/// Accuracy/effort knobs of the exact-waveform engine.
struct ExactOptions {
  /// Contour size of the legacy per-t path (also the engine's rescue
  /// bisection when it loses its bracket).
  int talbot_points = 48;
  /// Contour size M of each shared window (and of the root-polish window).
  /// Fixed Talbot saturates double precision around M ~ 25-30, so 48 keeps
  /// ample margin for the reduced effective node count at window feet.
  int window_points = 48;
  /// Window ratio Lambda: one contour serves all times in
  /// [t_max/Lambda, t_max].  Accuracy at the window foot behaves like a
  /// per-t inversion with ~window_points/Lambda nodes, so keep it modest.
  /// Must be > 1 (engine) / >= 1 (waveform sampling).
  double window_ratio = 4.0;
  /// Grid intervals per window in the threshold search (bracket density).
  int grid_points_per_window = 10;
  /// Route exact_threshold_delay through the legacy per-t bisection.
  bool legacy_bisection = false;
};

/// Instrumentation of one engine run (or an exact_sweep aggregate).
struct ExactStats {
  std::int64_t transfer_evals = 0;  ///< Eq. (1) evaluations
  std::int64_t windows = 0;         ///< shared contours built
  std::int64_t brent_iterations = 0;
  std::int64_t legacy_fallbacks = 0;  ///< engine runs rescued by bisection

  ExactStats& operator+=(const ExactStats& o) {
    transfer_evals += o.transfer_evals;
    windows += o.windows;
    brent_iterations += o.brent_iterations;
    legacy_fallbacks += o.legacy_fallbacks;
    return *this;
  }
};

/// Normalized exact step response v(t) of the driver-line-load stage at the
/// given times (unit final value).  Legacy path: one contour per time.
std::vector<double> exact_step_response(const tline::LineParams& line,
                                        double h, const tline::DriverLoad& dl,
                                        const std::vector<double>& times,
                                        int talbot_points = 48);

/// Fast path: the same waveform from shared-contour windows.  Times are
/// grouped greedily from the largest down — each group spans at most
/// opts.window_ratio and costs opts.window_points transfer evaluations
/// total.  Matches the per-t path to ~1e-6 (1e-3 guaranteed by tests) on
/// the structures here.
std::vector<double> exact_step_response_windowed(
    const tline::LineParams& line, double h, const tline::DriverLoad& dl,
    const std::vector<double>& times, const ExactOptions& opts = {},
    ExactStats* stats = nullptr);

/// First f*100% crossing of the exact step response inside the search
/// window (0.02..8 x tau_scale); pass the two-pole delay as the scale.
/// Returns nullopt if the threshold is not bracketed in the window.
/// Default path: windowed engine + Brent polish; set
/// opts.legacy_bisection for the per-t bisection reference.
std::optional<double> exact_threshold_delay(const tline::LineParams& line,
                                            double h,
                                            const tline::DriverLoad& dl,
                                            double tau_scale, double f,
                                            const ExactOptions& opts,
                                            ExactStats* stats = nullptr);

/// Switching pattern of a coupled bus: per-conductor far-end voltages
/// before (initial, the settled pre-switch state) and after (target) the
/// step at t = 0.  Quiet victim: initial = target on the victim conductor;
/// anti-phase aggressor: initial 1 -> target 0 while the victim rises.
struct CoupledExcitation {
  std::vector<double> initial;
  std::vector<double> target;
};

/// Multi-output engine entry point: far-end waveforms of EVERY conductor
/// of the coupled bus at the given times, recomposed from the modal scalar
/// responses.  Each excited mode is inverted with the Euler (Abate-Whitt)
/// method — one SoA span evaluation over every node of every time point —
/// because underdamped modal ringing tails sit outside the fixed-Talbot
/// contour's accuracy envelope (silent modes — zero modal weight — cost
/// nothing).  Result is [conductor][time], in volts of the excitation's
/// unit system.
std::vector<std::vector<double>> exact_coupled_step_response(
    const tline::CoupledLine& bus, double h, const tline::DriverLoad& dl,
    const CoupledExcitation& exc, const std::vector<double>& times,
    const ExactOptions& opts = {}, ExactStats* stats = nullptr);

/// First time conductor `conductor` crosses v = f (absolute level, same
/// units as the excitation) inside the 0.02..8 x tau_scale search window.
/// The composite victim waveform is evaluated through the SAME lazy
/// window-descent + Brent-polish machinery as the scalar path — per-mode
/// shared contours, recomposed per probe.  Honors opts.legacy_bisection.
std::optional<double> exact_coupled_threshold_delay(
    const tline::CoupledLine& bus, double h, const tline::DriverLoad& dl,
    const CoupledExcitation& exc, std::size_t conductor, double tau_scale,
    double f, const ExactOptions& opts = {}, ExactStats* stats = nullptr);

/// Exact victim-noise query: peak deviation of conductor `victim` from its
/// initial level, the time of the peak, and the pulse width (time spent
/// above half the peak magnitude).  Grid scan over the search window plus a
/// Brent refinement of the peak, both on the Euler inversion path (noise
/// peaks live in the ringing region where shared Talbot windows are least
/// accurate).
struct CoupledNoiseResult {
  double peak = 0.0;    ///< max |v(t) - v(0-)| over the search window
  double t_peak = 0.0;  ///< argmax time [s]
  double width = 0.0;   ///< time with |v - v(0-)| >= peak/2 [s]
};

CoupledNoiseResult exact_coupled_victim_noise(
    const tline::CoupledLine& bus, double h, const tline::DriverLoad& dl,
    const CoupledExcitation& exc, std::size_t victim, double tau_scale,
    const ExactOptions& opts = {}, ExactStats* stats = nullptr);

/// One exact-delay evaluation of an exact_sweep.
struct ExactSweepTask {
  tline::LineParams line;
  double h = 0.0;
  tline::DriverLoad dl;
  double tau_scale = 0.0;  ///< search-window scale (two-pole delay)
};

struct ExactSweepOptions {
  ExactOptions exact;
  double f = 0.5;       ///< threshold fraction
  bool parallel = true;  ///< fan out over the rlc::exec pool
  rlc::exec::ThreadPool* pool = nullptr;    ///< null: default_pool()
  rlc::exec::Counters* counters = nullptr;  ///< optional instrumentation
  ExactStats* stats = nullptr;  ///< aggregated engine stats (deterministic)
};

/// Exact threshold delays for every task, fanned over the thread pool.
/// Results are in input order and BIT-IDENTICAL to the serial loop for any
/// thread count (each task builds its own evaluator; no shared state).
/// Per-task wall time, Brent iterations, legacy fallbacks and
/// non-bracketed results (failures) go to opts.counters when set.
std::vector<std::optional<double>> exact_sweep(
    const std::vector<ExactSweepTask>& tasks,
    const ExactSweepOptions& opts = {});

/// Convenience: exact delays over an inductance sweep at fixed (h, k); the
/// per-task search scale is the two-pole segment delay (with an Elmore-style
/// estimate as fallback where the two-pole solve does not converge).
std::vector<std::optional<double>> exact_sweep(
    const Technology& tech, const std::vector<double>& ls, double h, double k,
    const ExactSweepOptions& opts = {});

}  // namespace rlc::core

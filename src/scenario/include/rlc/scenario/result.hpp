#pragma once

/// \file result.hpp
/// Structured experiment output.  Scenario functions never print — they
/// return a ScenarioResult (tables, scalar metrics, notes, solver counters,
/// wall time), which the rlc_run driver renders as human tables via the
/// bench formatters and serializes as a schema-versioned BENCH_<name>.json
/// artifact.  Separating production from presentation is what lets
/// independent scenarios run concurrently without interleaving output.

#include <string>
#include <vector>

#include "rlc/exec/counters.hpp"
#include "rlc/io/json.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"
#include "rlc/scenario/spec.hpp"

namespace rlc::scenario {

/// Version of the BENCH_<name>.json envelope written by
/// ScenarioResult::to_json.  History: 1 was the ad-hoc perf-bench format,
/// 2 added the scenario envelope, 3 added the `observability` block
/// (metrics snapshot + span rollup), 4 added the library `version` stamp
/// (every artifact and every rlc_serve response carries rlc::version()),
/// 5 added the `simd` field ("avx2" | "scalar" — the kernel level the
/// process resolved at startup from cpuid + RLC_SIMD), 6 added the
/// optional `coupling` block (multi-conductor scenarios: bus width,
/// coupling strengths and headline noise metrics), 7 added the
/// `telemetry` block (exporter-derived stats over the run's metrics
/// delta: Prometheus series/byte counts plus tracer ring configuration).
inline constexpr int kSchemaVersion = 7;

/// One table cell: a number or a short text label (e.g. "-" for a
/// non-converged point, a technology name in a key column).
struct Value {
  enum Kind { kNumber, kText };
  Kind kind = kNumber;
  double number = 0.0;
  std::string text;

  Value(double v) : number(v) {}                     // NOLINT(runtime/explicit)
  Value(int v) : number(v) {}                        // NOLINT(runtime/explicit)
  Value(long long v)                                 // NOLINT(runtime/explicit)
      : number(static_cast<double>(v)) {}
  Value(const char* v) : kind(kText), text(v) {}     // NOLINT(runtime/explicit)
  Value(std::string v)                               // NOLINT(runtime/explicit)
      : kind(kText), text(std::move(v)) {}
};

/// A rectangular table: named columns, rows of Values.
struct Table {
  std::string title;
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  Table() = default;
  Table(std::string title_, std::vector<std::string> columns_)
      : title(std::move(title_)), columns(std::move(columns_)) {}

  /// Append a row; throws std::invalid_argument on a width mismatch.
  Table& row(std::vector<Value> cells);

  io::Json to_json() const;
};

/// A named scalar result (max error, fitted exponent, speedup, ...).
struct Metric {
  std::string name;
  double value = 0.0;
};

/// What the obs layer saw during one scenario run: the registry delta
/// bracketing the scenario body plus the tracer's span rollup over the
/// same bracket.  The registry and tracer are process-wide, so attribution
/// is exact because rlc_run runs scenarios one at a time; a caller running
/// scenarios concurrently would see them bleed into each other's deltas.
struct Observability {
  obs::MetricsSnapshot metrics;            ///< delta, zero entries dropped
  std::vector<obs::Tracer::SpanStats> spans;  ///< rollup delta by name
  std::uint64_t dropped_spans = 0;
  bool tracing = false;  ///< tracer was enabled during the run

  /// {"tracing": b, "dropped_spans": n, "metrics": {...},
  ///  "spans": {name: {count, total_ns, top_level_ns}}}
  io::Json to_json() const;
};

/// Coupled-bus summary of a multi-conductor scenario (schema >= 6).  A
/// scenario that models coupling fills this; n_conductors == 0 (the
/// default) means "no coupling block" and the envelope omits it, so
/// single-line artifacts are byte-compatible with schema 5 modulo the
/// version bump.
struct CouplingInfo {
  int n_conductors = 0;      ///< bus width; 0: scenario has no coupling
  double cc = 0.0;           ///< representative coupling cap [F/m]
  double km = 0.0;           ///< representative inductive coefficient
  double peak_noise = 0.0;   ///< worst victim peak noise of the run [V]
  double noise_width = 0.0;  ///< its half-magnitude pulse width [s]

  io::Json to_json() const;
};

/// Everything one scenario run produced.
struct ScenarioResult {
  std::string name;   ///< scenario name (registry key)
  std::string title;  ///< one-line description for banners
  ScenarioSpec spec;  ///< the spec the run actually used
  std::vector<Table> tables;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  exec::Counters::Snapshot counters;
  Observability observability;
  CouplingInfo coupling;  ///< filled by multi-conductor scenarios
  double wall_seconds = 0.0;
  int threads = 1;     ///< pool size the run saw
  std::string error;   ///< non-empty: the scenario threw; everything else
                       ///< except name/spec is unspecified

  void metric(std::string n, double v) {
    metrics.push_back({std::move(n), v});
  }
  void note(std::string text) { notes.push_back(std::move(text)); }

  /// The versioned artifact envelope (see README "Machine-readable
  /// artifacts"): schema, version, bench, title, quick, threads, simd,
  /// wall_seconds, spec{...}, counters{...}, observability{...},
  /// tables[...], metrics{...}, notes[...], and `error` when the run
  /// failed.
  io::Json to_json() const;

  /// Order-sensitive digest of every numeric cell and metric — equal
  /// fingerprints mean bit-identical numbers.  Used by the determinism
  /// tests (--threads 1 vs N) and the legacy-equivalence checks.
  /// Deliberately excludes observability (counts vary with thread count
  /// and tracing; the physics must not).
  std::string numeric_fingerprint() const;
};

}  // namespace rlc::scenario

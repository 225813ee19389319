#!/usr/bin/env python3
"""Validate the machine-readable artifacts of this repo.

Two modes:

  validate_bench_json.py ARTIFACT_DIR
      The BENCH_<name>.json artifacts rlc_run --json emits.  Checks
      1. the schema-7 envelope for EVERY artifact (field types, version
         stamp, simd level, rectangular tables, finite numbers, embedded
         spec, observability block, telemetry block, optional coupling
         block),
      2. per-scenario physics invariants for the experiments whose shape
         the paper pins down (fig4, fig7, table1, perf_exact, ...),
      3. the BENCH_serve.json throughput artifact when present (its own
         schema: cold-vs-warm q/s with a measurable warm-cache speedup;
         full runs on multi-core hosts must also show cold-path scaling),
      4. the BENCH_load.json open-loop replay artifact when present (every
         request answered, zero errors/mismatches, ordered quantiles, and
         — schema 2 — the mid-run admin-scrape telemetry block).

  validate_bench_json.py --serve-responses FILE [--golden GOLDEN]
      An NDJSON response transcript captured from rlc_serve: every line a
      schema-stamped response envelope with a consistent status/code pair
      and a result object on success.  With --golden, the query answers
      and error responses must also match GOLDEN byte for byte once the
      delivery metadata (from_cache, wall_seconds and any trace block) is
      stripped; tests/svc/responses.golden.ndjson is the golden transcript
      of tests/svc/requests.ndjson.

Exits non-zero listing every violation; prints a one-line summary on success.
"""

import json
import math
import re
import sys
from pathlib import Path

SCHEMA_VERSION = 7
SERVE_SCHEMA_VERSION = 1
LOAD_SCHEMA_VERSION = 2
VERSION_RE = re.compile(r"^\d+\.\d+\.\d+$")

# rlc::simd::active_level_name() values (src/base/.../simd.hpp).
SIMD_LEVELS = {"avx2", "scalar"}

# rlc::StatusCode wire integers (stable; see src/base/.../status.hpp).
STATUS_CODES = {
    "ok": 0, "invalid_argument": 1, "not_found": 2, "no_convergence": 3,
    "deadline_exceeded": 4, "cancelled": 5, "internal": 6,
}

# Every scenario rlc_run --all must have produced an artifact for.  This is
# the same retirement contract as tests/scenario/test_registry.cpp.
EXPECTED_SCENARIOS = [
    "table1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9_10",
    "fig11", "fig12", "ablation_pade", "ablation_ladder",
    "ablation_baselines", "ext_crosstalk", "ext_frequency_response",
    "ext_scaling_trend", "ext_skin_effect", "perf_solvers", "perf_exact",
    "xtalk_quiet", "xtalk_inphase", "xtalk_antiphase", "xtalk_noise_opt",
    "power_100nm", "power_35nm", "pareto_100nm", "pareto_35nm",
]

# Scenarios that run MNA ring transients, and the obs::Registry counters
# each must report (rlc_spice publishes them; rejected_steps is omitted
# because a run with no rejected step drops the zero from the delta).
MNA_SCENARIOS = {"fig9_10", "fig11", "fig12"}
MNA_COUNTERS = (
    "spice.transient.steps", "spice.transient.newton_iters",
    "linalg.lu.full_factorizations", "linalg.lu.refactorizations",
    "linalg.lu.refactor_columns",
)

# Every scenario whose body reaches spice::run_transient (the only code
# that publishes MNA_COUNTERS: the transient loop and the SolveWorkspace it
# owns; DC operating points also own one, but only transients and AC
# analyses with compute_dc_op call them, and no scenario runs such an AC):
#   simulate_ring            fig9_10, fig11, fig12 (scenarios_ring.cpp)
#   spice_delay              ablation_ladder (scenarios_ablation.cpp)
#   run_coupled_step         ext_crosstalk (scenarios_ext.cpp) and, via
#                            run_mna, xtalk_quiet/_inphase/_antiphase
#   the MNA step fixture     perf_solvers (scenarios_perf.cpp)
# rlc_run runs scenarios one at a time, so every other scenario's metrics
# delta must carry none of MNA_COUNTERS.
TRANSIENT_SCENARIOS = MNA_SCENARIOS | {
    "ablation_ladder", "ext_crosstalk", "perf_solvers",
    "xtalk_quiet", "xtalk_inphase", "xtalk_antiphase",
}

# The converse: the ring bodies (scenarios_ring.cpp) call only rc_optimum
# and simulate_ring, never the (h, k) optimizer or the exact engine, so a
# ring scenario's delta must carry none of their counter families.
OPTIMIZER_AND_EXACT_PREFIXES = (
    "optimizer.", "newton.2d.", "exact.", "talbot.", "euler.", "tline.",
)

errors = []


def err(name, message):
    errors.append(f"{name}: {message}")


def numbers(table, col):
    """Numeric cells of a column (by index), skipping text cells."""
    return [row[col] for row in table["rows"]
            if isinstance(row[col], (int, float)) and not isinstance(row[col], bool)]


def check_version_stamp(name, d):
    v = d.get("version")
    if not isinstance(v, str) or not VERSION_RE.match(v):
        err(name, f"version stamp {v!r} missing or not semver")


def check_simd_stamp(name, d):
    s = d.get("simd")
    if s not in SIMD_LEVELS:
        err(name, f"simd level {s!r} not in {sorted(SIMD_LEVELS)}")


def check_envelope(name, d):
    if d.get("schema") != SCHEMA_VERSION:
        err(name, f"schema {d.get('schema')!r} != {SCHEMA_VERSION}")
    if d.get("bench") != name:
        err(name, f"bench {d.get('bench')!r} != file stem {name!r}")
    check_version_stamp(name, d)
    check_simd_stamp(name, d)
    if d.get("error"):
        err(name, f"scenario errored: {d['error']}")
        return
    for key, kind in (("title", str), ("quick", bool), ("threads", int),
                      ("wall_seconds", (int, float)), ("spec", dict),
                      ("counters", dict), ("observability", dict),
                      ("tables", list), ("metrics", dict), ("notes", list)):
        if not isinstance(d.get(key), kind):
            err(name, f"field {key!r} missing or not {kind}")
    if errors and errors[-1].startswith(name + ":"):
        return  # shape already broken; skip the deep checks

    check_observability(name, d["observability"])
    check_telemetry(name, d.get("telemetry"))
    if "coupling" in d:
        check_coupling(name, d["coupling"])

    if d["spec"].get("scenario") != name:
        err(name, f"spec.scenario {d['spec'].get('scenario')!r} != {name!r}")
    if d["threads"] < 1 or d["wall_seconds"] < 0:
        err(name, "threads/wall_seconds out of range")
    if d["counters"].get("tasks", 0) < 0:
        err(name, "negative counters.tasks")

    for t in d["tables"]:
        cols = t.get("columns", [])
        if not t.get("title") or not cols:
            err(name, "table without title/columns")
        if not t.get("rows"):
            err(name, f"table {t.get('title')!r} has no rows")
        for row in t.get("rows", []):
            if len(row) != len(cols):
                err(name, f"ragged row in table {t.get('title')!r}")
            for cell in row:
                if isinstance(cell, bool) or (
                        isinstance(cell, (int, float))
                        and not math.isfinite(cell)):
                    err(name, f"non-finite/bool cell in {t.get('title')!r}")
    for key, value in d["metrics"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            err(name, f"metric {key!r} not a finite number")


def check_observability(name, o):
    """Schema-3 observability block: a metrics snapshot (counters/gauges as
    integers, histograms with consistent stats) plus a span rollup."""
    for key, kind in (("tracing", bool), ("dropped_spans", int),
                      ("metrics", dict), ("spans", dict)):
        if not isinstance(o.get(key), kind):
            err(name, f"observability.{key} missing or not {kind}")
            return
    m = o["metrics"]
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(m.get(section), dict):
            err(name, f"observability.metrics.{section} missing")
            return
    for key, value in list(m["counters"].items()) + list(m["gauges"].items()):
        if not isinstance(value, int) or isinstance(value, bool):
            err(name, f"observability metric {key!r} not an integer")
    for key, h in m["histograms"].items():
        for field in ("count", "sum", "min", "max", "mean", "p50", "p90",
                      "p99"):
            v = h.get(field)
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or not math.isfinite(v):
                err(name, f"histogram {key!r}.{field} not a finite number")
        if isinstance(h.get("count"), int) and h["count"] > 0:
            if not (h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"]):
                err(name, f"histogram {key!r} quantiles out of order")
    for span, s in o["spans"].items():
        for field in ("count", "total_ns", "top_level_ns"):
            if not isinstance(s.get(field), int) or isinstance(s.get(field),
                                                               bool):
                err(name, f"span {span!r}.{field} not an integer")
        if isinstance(s.get("count"), int) and s["count"] <= 0:
            err(name, f"span {span!r} with non-positive count")
    if o["tracing"] and not o["spans"]:
        err(name, "tracing was on but the span rollup is empty")
    if name in MNA_SCENARIOS:
        for key in MNA_COUNTERS:
            if not m["counters"].get(key, 0) > 0:
                err(name, f"MNA counter {key!r} missing or zero")
        leaked = [key for key in m["counters"]
                  if key.startswith(OPTIMIZER_AND_EXACT_PREFIXES)]
    elif name not in TRANSIENT_SCENARIOS:
        leaked = [key for key in MNA_COUNTERS if key in m["counters"]]
    else:
        leaked = []
    if leaked:
        err(name, f"reports {sorted(leaked)}, which its body never "
                  "reaches: the metrics delta includes another scenario's "
                  "work")


def check_telemetry(name, t):
    """Schema-7 telemetry block: exporter-derived scrape stats over the
    run's metrics delta plus the tracer ring configuration."""
    if not isinstance(t, dict):
        err(name, "telemetry block missing or not an object")
        return
    for key in ("prometheus_series", "prometheus_bytes",
                "trace_ring_capacity", "dropped_spans"):
        v = t.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            err(name, f"telemetry.{key} = {v!r} not a non-negative integer")
            return
    if t["trace_ring_capacity"] < 1:
        err(name, f"telemetry.trace_ring_capacity = "
                  f"{t['trace_ring_capacity']} must be >= 1")
    # A non-empty metrics delta must cost bytes to scrape; series implies
    # bytes (every sample line ends in a newline).
    if t["prometheus_series"] > 0 and t["prometheus_bytes"] <= 0:
        err(name, "telemetry claims series but zero exposition bytes")


def check_coupling(name, c):
    """Schema-6 optional coupling block: the multi-conductor summary a
    coupled scenario stamps on its envelope."""
    if not isinstance(c, dict):
        err(name, "coupling block is not an object")
        return
    n = c.get("n_conductors")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        err(name, f"coupling.n_conductors = {n!r} must be an int >= 2")
    for key in ("cc", "km", "peak_noise", "noise_width"):
        v = c.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            err(name, f"coupling.{key} = {v!r} not a finite number")
            return
    if c["cc"] < 0:
        err(name, f"coupling.cc = {c['cc']} must be >= 0")
    if not (-1.0 < c["km"] < 1.0):
        err(name, f"coupling.km = {c['km']} must satisfy |km| < 1")
    if c["peak_noise"] < 0 or c["noise_width"] < 0:
        err(name, "coupling noise metrics must be >= 0")


def col_index(table, name_part):
    """Index of the first column whose name contains name_part; None if
    absent."""
    for i, col in enumerate(table.get("columns", [])):
        if name_part in col:
            return i
    return None


def check_xtalk(name, d):
    """Shared invariants of the xtalk_* crosstalk scenarios: physical noise,
    delay ordering on the purely capacitive rows, and analytical-vs-MNA
    agreement.  Full runs use the converged-ladder MNA reference and must
    sit within 5e-3 per unit swing (the integration-test pin); quick runs
    use a coarse ladder and get a 5e-2 sanity bound instead."""
    tables, metrics = d["tables"], d["metrics"]
    if "coupling" not in d:
        err(name, "xtalk scenario without a coupling block")
    rel_budget = 5e-2 if d.get("quick", True) else 5e-3
    if name != "xtalk_noise_opt":
        rel = metrics.get("max_wave_rel_err")
        if rel is None or rel > rel_budget:
            err(name, f"max_wave_rel_err = {rel} exceeds {rel_budget} "
                      "(analytical engine disagrees with the MNA reference)")
    t = tables[0]
    km_col = col_index(t, "km")
    if name == "xtalk_quiet":
        peak = col_index(t, "peak (V)")
        for row in t["rows"]:
            if row[peak] < 0:
                err(name, f"negative victim peak noise {row[peak]}")
    elif name in ("xtalk_inphase", "xtalk_antiphase"):
        quiet = col_index(t, "d_quiet")
        other = col_index(t, "d_anti" if name == "xtalk_antiphase"
                          else "d_inphase")
        for row in t["rows"]:
            if row[km_col] != 0:
                continue  # inductive coupling legitimately reverses the order
            dq, do = row[quiet], row[other]
            if name == "xtalk_antiphase" and not dq <= do * (1 + 1e-9):
                err(name, f"km=0 row: d_quiet {dq} > d_anti {do} "
                          "(Miller ordering violated)")
            if name == "xtalk_inphase" and not do <= dq * (1 + 1e-9):
                err(name, f"km=0 row: d_inphase {do} > d_quiet {dq} "
                          "(Miller ordering violated)")
    elif name == "xtalk_noise_opt":
        vmax = col_index(t, "vmax")
        peak = col_index(t, "peak noise")
        for row in t["rows"]:
            if row[peak] > row[vmax] * (1 + 1e-6):
                err(name, f"peak noise {row[peak]} exceeds the vmax "
                          f"{row[vmax]} budget the optimizer promised")


def check_power(name, d):
    """power_<node>: delay-slack-constrained power minimization.  Every
    answer must honour its slack bound against the scenario's own delay
    reference, power must fall monotonically as slack grows (a looser
    constraint can only help), and the solver must never lose to the
    brute-force grid it is cross-checked against in-table."""
    t, metrics = d["tables"][0], d["metrics"]
    eps_c = col_index(t, "eps")
    delay_c = col_index(t, "delay/len")
    power_c = col_index(t, "power (mW/m)")
    saved_c = col_index(t, "saved")
    active_c = col_index(t, "active")
    grid_c = col_index(t, "grid p")
    if None in (eps_c, delay_c, power_c, saved_c, active_c, grid_c):
        err(name, f"power table columns changed: {t['columns']}")
        return
    delay_ref = metrics.get("delay_ref_ps_mm", 0.0)
    power_ref = metrics.get("power_ref_mW_m", 0.0)
    if not delay_ref > 0 or not power_ref > 0:
        err(name, f"delay_ref_ps_mm/power_ref_mW_m not positive: "
                  f"{delay_ref}, {power_ref}")
        return
    prev_power = math.inf
    for row in t["rows"]:
        eps, dpl, p = row[eps_c], row[delay_c], row[power_c]
        if not p > 0:
            err(name, f"eps={eps} row: power {p} not positive")
        if dpl > (1.0 + eps) * delay_ref * (1 + 1e-6):
            err(name, f"eps={eps} row: delay {dpl} breaks the "
                      f"(1+eps)*T_opt = {(1.0 + eps) * delay_ref} bound")
        if p > prev_power * (1 + 1e-9):
            err(name, f"eps={eps} row: power {p} rose above the tighter-"
                      f"slack row's {prev_power} (monotonicity violated)")
        prev_power = p
        if eps == 0:
            # Zero slack pins the delay optimum bitwise: nothing saved.
            if abs(row[saved_c]) > 1e-9:
                err(name, f"eps=0 row saved {row[saved_c]}% != 0")
            if abs(p - power_ref) > 1e-9 * power_ref:
                err(name, f"eps=0 row power {p} != power_ref {power_ref}")
        gp = row[grid_c]
        if isinstance(gp, (int, float)) and not isinstance(gp, bool):
            if p > gp * (1 + 1e-9):
                err(name, f"eps={eps} row: solver power {p} worse than the "
                          f"best feasible grid point {gp}")
    excess = metrics.get("max_grid_excess_pct", math.inf)
    if excess > 1e-7:
        err(name, f"max_grid_excess_pct = {excess}: the continuous solver "
                  "lost to its own brute-force grid")


def check_pareto(name, d):
    """pareto_<node>: the emitted front must actually be a front — sorted
    by delay with strictly decreasing power (structural non-dominance) —
    and the summary metrics must restate its endpoints."""
    t, metrics = d["tables"][0], d["metrics"]
    delay_c = col_index(t, "delay/len")
    power_c = col_index(t, "power (mW/m)")
    dyn_c, sc_c, leak_c = (col_index(t, p) for p in ("dyn", "sc", "leak"))
    if None in (delay_c, power_c, dyn_c, sc_c, leak_c):
        err(name, f"pareto table columns changed: {t['columns']}")
        return
    rows = t["rows"]
    if metrics.get("front_points") != len(rows):
        err(name, f"front_points {metrics.get('front_points')} != "
                  f"{len(rows)} table rows")
    prev = None
    for row in rows:
        dpl, p = row[delay_c], row[power_c]
        parts = row[dyn_c] + row[sc_c] + row[leak_c]
        if not (p > 0 and row[dyn_c] > 0 and row[sc_c] > 0 and row[leak_c] > 0):
            err(name, f"non-positive power component in row {row}")
        if abs(parts - p) > 1e-6 * p:
            err(name, f"power {p} != dyn+sc+leak {parts}")
        if prev is not None:
            pd, pp = prev
            if not dpl > pd:
                err(name, f"front not sorted by increasing delay: "
                          f"{dpl} after {pd}")
            if not p < pp:
                err(name, f"dominated point on the front: power {p} not "
                          f"below predecessor's {pp}")
        prev = (dpl, p)
    if rows:
        checks = (("delay_min_ps_mm", rows[0][delay_c]),
                  ("delay_max_ps_mm", rows[-1][delay_c]),
                  ("power_max_mW_m", rows[0][power_c]),
                  ("power_min_mW_m", rows[-1][power_c]))
        for key, want in checks:
            got = metrics.get(key)
            if got is None or abs(got - want) > 1e-9 * abs(want):
                err(name, f"metric {key} = {got} disagrees with the "
                          f"table endpoint {want}")
        if metrics.get("power_span_ratio", 0.0) < 1.0:
            err(name, "power_span_ratio below 1: the frugal end is not "
                      "cheaper than the fast end")


def check_invariants(name, d):
    tables, metrics = d["tables"], d["metrics"]
    if name.startswith("xtalk_"):
        check_xtalk(name, d)
        return
    if name.startswith("power_"):
        check_power(name, d)
        return
    if name.startswith("pareto_"):
        check_pareto(name, d)
        return
    if name == "table1":
        # Paper Table 1: h_optRC 14.40 mm (250nm) / 11.10 mm (100nm).
        for key, want in (("h_optRC_250nm_mm", 14.40),
                          ("h_optRC_100nm_mm", 11.10)):
            got = metrics.get(key)
            if got is None or abs(got - want) > 0.01 * want:
                err(name, f"{key} = {got} not within 1% of {want}")
    elif name == "fig4":
        # l_crit positive everywhere; the 100nm curve below the 250nm one.
        for c250, c100 in zip(numbers(tables[0], 1), numbers(tables[0], 2)):
            if not (0 < c100 < c250):
                err(name, f"expected 0 < lcrit_100nm < lcrit_250nm, "
                          f"got {c100} vs {c250}")
                break
    elif name == "fig7":
        # Ratios are normalized to the l = 0 row and grow monotonically.
        for col in (1, 2, 3):
            series = numbers(tables[0], col)
            if abs(series[0] - 1.0) > 1e-12:
                err(name, f"column {col} not normalized: first = {series[0]}")
            if any(b < a - 1e-12 for a, b in zip(series, series[1:])):
                err(name, f"column {col} not monotonically increasing")
    elif name == "fig5":
        # Optimal segment length grows with inductance (paper Figure 5).
        for col in (1, 2):
            series = numbers(tables[0], col)
            if any(b < a - 1e-9 for a, b in zip(series, series[1:])):
                err(name, f"column {col} should be non-decreasing")
    elif name == "fig6":
        # Optimal repeater size shrinks with inductance (paper Figure 6).
        for col in (1, 2):
            series = numbers(tables[0], col)
            if any(b > a + 1e-9 for a, b in zip(series, series[1:])):
                err(name, f"column {col} should be non-increasing")
    elif name == "fig9_10":
        # Inductance worsens the inverter input excursions (Figures 9/10).
        if not (0 < metrics.get("period_ratio", -1)):
            err(name, "period_ratio should be positive")
        if metrics.get("input_overshoot_V_1", 0) <= \
                metrics.get("input_overshoot_V_0", math.inf):
            err(name, "higher-inductance ring should overshoot more")
    elif name == "ablation_pade":
        # The two-pole model degrades with l but stays a usable delay model
        # over the paper's 0-5 nH/mm range (worst case ~14% at l = 5).
        worst = max(v for k, v in metrics.items()
                    if k.startswith("max_abs_err_pct"))
        if worst > 25.0:
            err(name, f"two-pole delay error {worst}% vs exact exceeds 25%")
    elif name == "perf_exact":
        # Accuracy is a hard invariant; windowed-vs-per-t speedups are
        # advisory because CI runs every scenario concurrently with --all.
        budget = metrics.get("rel_err_budget", 1e-3)
        if metrics.get("max_rel_err", math.inf) > budget:
            err(name, f"max_rel_err {metrics.get('max_rel_err')} "
                      f"exceeds budget {budget}")
        # The SoA batch kernel must agree with the per-point
        # exact_transfer_dc_safe(...)/s at any simd level.  1e-8 not 1e-12:
        # the comparison spans deep-rolloff contour nodes where |H| is
        # within a few hundred orders of magnitude of underflow and the
        # reference's own complex division sequencing costs relative
        # digits; the tight 1e-12 scalar-vs-simd pin lives in
        # tests/tline/test_batch_evaluator.cpp.
        kerr = metrics.get("batch_kernel_rel_err", math.inf)
        if kerr > 1e-8:
            err(name, f"batch_kernel_rel_err {kerr} exceeds 1e-8: "
                      "batch kernel disagrees with the per-point "
                      "exact_transfer_dc_safe")
        # The batch-vs-per-point speedup IS enforced on full runs: the
        # head-to-head times both variants inside the same scenario, so
        # concurrent CI load cancels out of the ratio.  Quick runs use
        # too few reps for a stable ratio and are advisory only.
        if not d.get("quick", True) and d.get("simd") == "avx2":
            target = metrics.get("batch_speedup_target", 2.5)
            got = metrics.get("batch_speedup", 0.0)
            if got < target:
                err(name, f"batch_speedup {got:.2f} below target {target} "
                          "on a full avx2 run: the SoA batch kernel "
                          "regressed vs scalar_per_point")


def check_serve_artifact(name, d):
    """BENCH_serve.json: the rlc_serve --bench throughput record.  Its own
    schema (not a scenario envelope).  Structural checks plus the one
    hard performance invariant: the warm-cache pass must be measurably
    faster than the cold pass — warm requests are cache hits, so anything
    close to 1.0 means the result cache is broken, not that CI was slow."""
    if d.get("schema") != SERVE_SCHEMA_VERSION:
        err(name, f"schema {d.get('schema')!r} != {SERVE_SCHEMA_VERSION}")
    if d.get("bench") != "serve":
        err(name, f"bench {d.get('bench')!r} != 'serve'")
    check_version_stamp(name, d)
    check_simd_stamp(name, d)
    for key, kind in (("quick", bool), ("threads", int), ("requests", int),
                      ("metrics", dict)):
        if not isinstance(d.get(key), kind):
            err(name, f"field {key!r} missing or not {kind}")
            return
    m = d["metrics"]
    for key in ("t1_cold_qps", "t1_warm_qps", "tn_cold_qps", "tn_warm_qps",
                "warm_speedup_t1", "parallel_speedup_cold",
                "warm_cache_hit_rate"):
        v = m.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v) or v < 0:
            err(name, f"metrics.{key} = {v!r} not a finite non-negative number")
            return
    if m["warm_speedup_t1"] < 2.0:
        err(name, f"warm_speedup_t1 = {m['warm_speedup_t1']:.2f}: "
                  "no measurable warm-cache speedup")
    if not (0.0 < m["warm_cache_hit_rate"] <= 1.0):
        err(name, f"warm_cache_hit_rate = {m['warm_cache_hit_rate']} "
                  "outside (0, 1]")
    # Cold-path scaling is a hard invariant for FULL runs only: a full run
    # happens on a real multi-core box, where the cold batch must
    # parallelize (the solver path is lock-free; see tests/svc).  Quick/CI
    # runs may land on 1-core machines — there parallel_threads == 1 and the
    # honest speedup is ~1.0, which is a host property, not a regression.
    if not d.get("quick", True):
        if d.get("parallel_threads", d.get("threads", 1)) > 1 \
                and m["parallel_speedup_cold"] < 2.0:
            err(name, f"parallel_speedup_cold = "
                      f"{m['parallel_speedup_cold']:.2f} on a full run with "
                      f"{d.get('parallel_threads')} threads: cold path "
                      "is not scaling")


def check_load_artifact(name, d):
    """BENCH_load.json: the rlc_load open-loop replay record.  Structural
    checks plus the serving-correctness invariants that hold at any scale:
    every request answered, nothing mis-correlated, transport intact, and
    (schema 2) a successful mid-run admin scrape of the loaded server."""
    if d.get("schema") != LOAD_SCHEMA_VERSION:
        err(name, f"schema {d.get('schema')!r} != {LOAD_SCHEMA_VERSION}")
    if d.get("bench") != "load":
        err(name, f"bench {d.get('bench')!r} != 'load'")
    check_version_stamp(name, d)
    check_simd_stamp(name, d)
    for key, kind in (("quick", bool), ("connections", int),
                      ("requests", int), ("duration_seconds", (int, float)),
                      ("metrics", dict)):
        if not isinstance(d.get(key), kind) or isinstance(d.get(key), bool) \
                and kind is not bool:
            err(name, f"field {key!r} missing or not {kind}")
            return
    m = d["metrics"]
    for key in ("offered_qps", "achieved_qps", "responses", "errors",
                "id_mismatches", "p50_latency_us", "p99_latency_us",
                "max_latency_us", "mean_latency_us"):
        v = m.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v) or v < 0:
            err(name, f"metrics.{key} = {v!r} not a finite non-negative number")
            return
    if m["responses"] != d["requests"]:
        err(name, f"responses {m['responses']} != requests {d['requests']}: "
                  "the server dropped or duplicated work")
    if m["errors"] != 0:
        err(name, f"{m['errors']} non-ok responses during replay")
    if m["id_mismatches"] != 0:
        err(name, f"{m['id_mismatches']} responses answered the wrong "
                  "request (ordering/leakage bug)")
    if m.get("transport_failed"):
        err(name, "a connection failed mid-replay")
    if d["requests"] > 0 and not (0 < m["p50_latency_us"]
                                  <= m["p99_latency_us"]
                                  <= m["max_latency_us"]):
        err(name, "latency quantiles out of order")
    t = d.get("telemetry")
    if not isinstance(t, dict):
        err(name, "telemetry block missing (schema 2 requires the "
                  "mid-run admin scrape record)")
        return
    if not t.get("scrape_ok"):
        err(name, "mid-run admin scrape failed: the observability plane "
                  "did not answer while the serving plane was loaded")
        return
    if t.get("prometheus_series", 0) < 1 or t.get("prometheus_bytes", 0) < 1:
        err(name, "scrape succeeded but the Prometheus exposition was "
                  "empty — the server recorded no svc metrics under load?")
    if t.get("trace_ring_capacity", 0) < 1:
        err(name, f"telemetry.trace_ring_capacity = "
                  f"{t.get('trace_ring_capacity')!r} must be >= 1")


def check_serve_responses(path):
    """Every line of an rlc_serve NDJSON transcript is a well-formed
    schema-stamped response envelope."""
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    if not lines:
        err(path.name, "transcript is empty")
    for i, line in enumerate(lines, 1):
        where = f"{path.name}:{i}"
        try:
            d = json.loads(line)
        except json.JSONDecodeError as e:
            err(where, f"invalid JSON: {e}")
            continue
        if d.get("schema") != SERVE_SCHEMA_VERSION:
            err(where, f"schema {d.get('schema')!r} != {SERVE_SCHEMA_VERSION}")
        check_version_stamp(where, d)
        status, code = d.get("status"), d.get("code")
        if status not in STATUS_CODES:
            err(where, f"unknown status {status!r}")
            continue
        if code != STATUS_CODES[status]:
            err(where, f"code {code!r} inconsistent with status {status!r}")
        if status == "ok":
            if not isinstance(d.get("result"), dict):
                err(where, "ok response without a result object")
        else:
            if not isinstance(d.get("message"), str) or not d["message"]:
                err(where, "error response without a message")
            if "result" in d:
                err(where, "error response must not carry a result")
    return len(lines)


def strip_delivery(line):
    """Drop the delivery metadata that closes a query result object:
    from_cache, wall_seconds and any flat trace block after them."""
    key = line.find('"from_cache"')
    if key < 0:
        return line
    start = line.rfind(",", 0, key)
    close = line.find("}", key)
    return line if start < 0 or close < 0 else line[:start] + line[close:]


def answer_lines(path):
    """The query answers and error responses of a transcript, stripped of
    delivery metadata: the lines whose bytes are pinned by a golden."""
    out = []
    for line in path.read_text().splitlines():
        try:
            d = json.loads(line)
        except json.JSONDecodeError:
            continue  # reported by check_serve_responses
        result = d.get("result")
        if d.get("status") != "ok" or (isinstance(result, dict)
                                       and "from_cache" in result):
            out.append((d.get("id"), strip_delivery(line)))
    return out


def check_serve_golden(path, golden):
    got = answer_lines(path)
    want = [(json.loads(l).get("id"), l)
            for l in golden.read_text().splitlines() if l.strip()]
    if len(got) != len(want):
        err(path.name, f"{len(got)} answer lines, golden {golden.name} has "
                       f"{len(want)}")
    for (gid, g), (wid, w) in zip(got, want):
        if g != w:
            err(f"{path.name} id {gid!r}",
                f"differs from golden id {wid!r}:\n  got  {g}\n  want {w}")
    return len(want)


def finish(summary):
    if errors:
        for e in errors:
            print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
    print(summary)


def main():
    if len(sys.argv) in (3, 5) and sys.argv[1] == "--serve-responses":
        path = Path(sys.argv[2])
        n = check_serve_responses(path)
        summary = (f"ok: {n} serve responses valid "
                   f"(schema {SERVE_SCHEMA_VERSION})")
        if len(sys.argv) == 5:
            if sys.argv[3] != "--golden":
                sys.exit(__doc__)
            g = check_serve_golden(path, Path(sys.argv[4]))
            summary += f", {g} answers match the golden"
        finish(summary)
        return
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    art_dir = Path(sys.argv[1])
    found = {p.stem.removeprefix("BENCH_"): p
             for p in sorted(art_dir.glob("BENCH_*.json"))}
    for name in EXPECTED_SCENARIOS:
        if name not in found:
            err(name, "artifact missing")
    for name in found:
        # "serve" and "load" are optional: rlc_serve --bench and rlc_load
        # write them, rlc_run doesn't.
        if name not in EXPECTED_SCENARIOS and name not in ("serve", "load"):
            err(name, "unexpected artifact (extend EXPECTED_SCENARIOS?)")

    for name, path in found.items():
        try:
            d = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            err(name, f"invalid JSON: {e}")
            continue
        if name == "serve":
            check_serve_artifact(name, d)
            continue
        if name == "load":
            check_load_artifact(name, d)
            continue
        before = len(errors)
        check_envelope(name, d)
        if len(errors) == before and name in EXPECTED_SCENARIOS:
            check_invariants(name, d)

    finish(f"ok: {len(found)} artifacts valid "
           f"(schema {SCHEMA_VERSION}, all invariants hold)")


if __name__ == "__main__":
    main()

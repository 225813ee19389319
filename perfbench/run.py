#!/usr/bin/env python3
"""perfbench/run.py — the repository benchmark.

    python3 perfbench/run.py --workload cold_mix|warm_replay|ring_fig11 \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds the package in
perfbench/ (the repository library, rlc_serve, rlc_run and the benchmark's
own pb_client / pb_layers) into $CARGO_TARGET_DIR (default .bench_build);
later runs reuse it.  Scratch files live under .bench_run/ and are removed
on exit.

Workloads (inputs are generated from --seed before any timing):
  cold_mix     closed loop over nproc connections to `rlc_serve --socket`,
               COLD_WINDOW requests in flight on each;
               every key distinct (all misses, inserts and evictions);
               class mix scalar 40% / +exact 20% / power 15% / coupled 15% /
               noise-constrained 10%
  warm_replay  open-loop Poisson at a fixed offered rate over 256 keys warmed
               during set-up (all hits), then a saturating pipelined phase
  ring_fig11   `rlc_run fig11` (the full Figure 11 grid, alone) repeated
               until --seconds have passed

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
Human-readable lines go to stdout first; the LAST stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cold_mix", "warm_replay", "ring_fig11")
CLASSES = ("scalar", "exact", "power", "coupled", "noise")
# One shuffled block of 20 per draw keeps the class shares exact:
# scalar 40%, exact 20%, power 15%, coupled 15%, noise 10%.
CLASS_BLOCK = (["scalar"] * 8 + ["exact"] * 4 + ["power"] * 3 +
               ["coupled"] * 3 + ["noise"] * 2)
WARM_KEYS = 256
# cold_mix sends these known-defect queries after its timed pass and prints
# how they were answered; they are neither timed nor counted (see
# defect_probes).
PROBES = 8
WARM_CANDIDATES = 320
# Set-up is repeated and its median reported: server launches are cheap,
# warm-ups (launch + answering every candidate key cold) are not.
SERVER_SETUPS = 31
WARM_SETUPS = 5
RING_SETUPS = 31
SAT_CONNS_WINDOW = 16
# cold_mix: requests in flight per connection.  The server answers a batch
# only when its slowest query is done; with one request per connection the
# pool idled on those waits and runs of one seed spread by ~20% with the
# speed of whichever core ran the slow query.  Sixteen per connection fill
# the batches and keep the pool busy, so a run measures the whole machine,
# as ring_fig11 does.
COLD_WINDOW = 16
# warm_replay's fixed offered rate (requests/s): well inside the server's
# small-batch capacity, so a slow spell of the host does not turn the
# fixed-rate phase into queue build-up.
WARM_RATE = 10000.0
# A traced query-workload run replays the same inputs untraced and traced
# against fresh servers, so each pass gets this share of --seconds.
TRACE_SPLIT = 0.5
# Generator validity: a run where more than LATE_SHARE_MAX of the open-loop
# requests left more than LATE_US after their due time measured the
# generator, not the server; it is reported invalid, not slow.  (The
# generator polls instead of sleeping, so on a busy host well under 1% of
# its requests leave late; one that cannot keep up is late on most.)
LATE_US = 1000.0
LATE_SHARE_MAX = 0.05
# ring_fig11: periods must match the committed reference within this
# relative tolerance.
RING_PERIOD_RTOL = 1e-3
# The paper's collapse bracket at 100 nm (nH/mm): the first collapsed grid
# point must lie in (1.8, 2.2].
COLLAPSE_BRACKET = (1.8, 2.2)

END_TO_END = ("setup_s", "throughput_per_s", "latency_p50_ms")
UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms"}


class BenchError(Exception):
    """A failure of the benchmark itself (build, set-up, transport)."""


def say(msg=""):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# statistics

def pct(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def windowed_rate(records, seconds):
    """Median over whole one-second windows of completions per second."""
    n = int(seconds)
    counts = [0] * n
    for r in records:
        if int(r["t"]) < n:
            counts[int(r["t"])] += 1
    return statistics.median(counts) if n else len(records) / seconds


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# build and machine stamp

def nproc():
    return len(os.sched_getaffinity(0))


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("the repository sources are not next to perfbench/ "
                         f"(looked for {ROOT / 'CMakeLists.txt'} and src/)")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "perfbench-build.log"
    steps = []
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in (
            cache.read_text()):
        raise BenchError(f"{build_dir} was configured for another source "
                         "tree; remove it or point CARGO_TARGET_DIR elsewhere")
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(nproc()),
                  "--target", "rlc_run", "rlc_serve", "pb_client",
                  "pb_layers"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return {
        "rlc_serve": build_dir / "bench" / "rlc_serve",
        "rlc_run": build_dir / "bench" / "rlc_run",
        "pb_client": build_dir / "bin" / "pb_client",
        "pb_layers": build_dir / "bin" / "pb_layers",
    }


def run_json(cmd, timeout):
    """Run a command whose last stdout line is a JSON object."""
    p = subprocess.run([str(c) for c in cmd], capture_output=True, text=True,
                       timeout=timeout)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{Path(str(cmd[0])).name} {cmd[1]} failed "
                         f"(exit {p.returncode}): {p.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# workload generation

def km_bound(n):
    """|km| below which the symmetric n-wire bus's inductance matrix is
    positive definite, i.e. physically realizable: its eigenvalues are
    1 + 2 km cos(j pi / (n + 1)), so 1 for n = 2 and 1/sqrt(2) for n = 3."""
    return 1.0 / (2.0 * math.cos(math.pi / (n + 1)))


# Noise budgets (fraction of VDD) above the victim's peak noise at the
# delay optimum for every input the generator draws (at most 0.607 VDD at
# 100 nm and 0.244 VDD at 250 nm, both at l = 5 nH/mm, cc = 0.6 c, n = 2), so
# the budget is met without moving off the optimum.  A binding budget sends
# the solver onto the constraint boundary, where an isolated input now and
# then comes back `no_convergence` although its budget is feasible (see
# BOUNDARY_PROBE); across runs that made the failure count differ, so the
# timed mix keeps budgets slack and the probe keeps the defect visible.
NOISE_BUDGET = {"250nm": (0.3, 0.5), "100nm": (0.7, 0.9)}
# Margin inside the realizable km range, so a bus is never singular.
KM_MARGIN = 0.999


def gen_query(rng, cls, stamp):
    tech = rng.choice(["250nm", "100nm"])
    q = {"op": "query", "technology": tech, "l": rng.uniform(0.0, 5e-6)}
    if cls == "exact":
        q["with_exact_delay"] = True
    elif cls == "power":
        q["objective"] = "power"
        q["delay_slack_eps"] = rng.choice([0.02, 0.05, 0.1])
    elif cls in ("coupled", "noise"):
        n = rng.choice([2, 3])
        q["n_conductors"] = n
        q["coupling_cc"] = rng.uniform(0.1, 0.6) * stamp[tech]["c"]
        bound = KM_MARGIN * km_bound(n)
        q["coupling_km"] = rng.uniform(-bound, bound)
        if cls == "noise":
            q["noise_vmax"] = (rng.uniform(*NOISE_BUDGET[tech]) *
                               stamp[tech]["vdd"])
    return q


def gen_mix(rng, n, stamp):
    out = []
    while len(out) < n:
        block = CLASS_BLOCK[:]
        rng.shuffle(block)
        out.extend((cls, gen_query(rng, cls, stamp)) for cls in block)
    return out[:n]


def gen_unrealizable(rng, n):
    """3-wire buses with km past the realizable bound, which the wire still
    accepts (|km| < 1): the known defect of ROADMAP item 4."""
    out = []
    for _ in range(n):
        km = rng.uniform(km_bound(3) * 1.01, 0.99) * rng.choice([-1.0, 1.0])
        out.append({"op": "query", "technology": rng.choice(["250nm",
                                                             "100nm"]),
                    "l": rng.uniform(0.5e-6, 5e-6), "n_conductors": 3,
                    "coupling_cc": 2e-11, "coupling_km": km})
    return out


# A binding noise budget that the boundary solve misses by 0.02% (best
# 0.314088 V against 0.314030 V) and answers `no_convergence`, although the
# same query with a budget 0.5% tighter or l 10% off is answered `ok`.
BOUNDARY_PROBE = {"op": "query", "technology": "100nm",
                  "l": 2.4360527640370116e-07, "n_conductors": 2,
                  "coupling_cc": 4.333899869646209e-11,
                  "coupling_km": -0.950605629173436,
                  "noise_vmax": 0.3140295729200279}


def defect_probes(rng):
    """(label, query) pairs for the known defects the timed mix avoids."""
    return ([("unrealizable 3-wire bus (|km| > 1/sqrt(2))", q)
             for q in gen_unrealizable(rng, PROBES)] +
            [("feasible binding noise budget", BOUNDARY_PROBE)])


def write_requests(path, reqs, trace_prefix=None):
    with open(path, "w") as f:
        for i, (cls, q) in enumerate(reqs):
            if trace_prefix is not None:
                q = dict(q, trace_id=f"{trace_prefix}{i}")
            f.write(f"{cls}\t{json.dumps(q, separators=(',', ':'))}\n")


# ---------------------------------------------------------------------------
# answer checks

def normalize(line):
    """Drop the delivery metadata (from_cache, wall_seconds and any trace
    block) that closes the result object — pb_client does the same."""
    key = line.find('"from_cache"')
    if key < 0:
        return line
    pos = line.rfind(",", 0, key)
    close = line.find("}", key)
    return line if pos < 0 or close < 0 else line[:pos] + line[close:]


def _finite_pos(r, *keys):
    return all(isinstance(r.get(k), (int, float)) and math.isfinite(r[k])
               and r[k] > 0 for k in keys)


def check_answer(cls, q, resp):
    """Classify one cold answer: ("ok", None), or ("wrong", reason) for a
    non-ok status or an answer that fails its check.  Every generated
    input is realizable and feasible, so any non-ok status is a failure."""
    status = resp.get("status")
    if status != "ok":
        return "wrong", f"status {status}: {resp.get('message')}"
    r = resp.get("result", {})
    if not _finite_pos(r, "h", "k", "tau", "delay_per_length"):
        return "wrong", "h, k, tau and delay per length must be finite and > 0"
    if cls == "exact" and not _finite_pos(r, "exact_delay"):
        return "wrong", "exact_delay must be finite and > 0"
    if cls == "power":
        parts = ("power_total", "power_dynamic", "power_short_circuit",
                 "power_leakage")
        if not all(isinstance(r.get(k), (int, float)) and math.isfinite(r[k])
                   and r[k] >= 0 for k in parts):
            return "wrong", "power figures must be finite and >= 0"
        bound = (1.0 + q["delay_slack_eps"]) * r.get("delay_ref", 0.0)
        if not r["delay_per_length"] <= bound * (1.0 + 1e-9):
            return "wrong", "delay exceeds (1 + eps) * delay_ref"
    if cls in ("coupled", "noise"):
        for k in ("peak_noise", "noise_width"):
            v = r.get(k)
            if not (isinstance(v, (int, float)) and math.isfinite(v)
                    and v >= 0):
                return "wrong", f"{k} must be finite and >= 0"
    if cls == "noise" and r.get("constraint_active"):
        if not r["peak_noise"] <= q["noise_vmax"] * (1.0 + 1e-6):
            return "wrong", "peak noise exceeds noise_vmax"
    return "ok", None


def grid_subsample(rng, answered):
    """Seeded subsample of ok scalar/exact/power answers for the brute-force
    grid check: up to 8 scalar, 4 exact and 6 power."""
    want = {"scalar": 8, "exact": 4, "power": 6}
    picks = []
    for cls, n in want.items():
        pool = [a for a in answered if a[0] == cls]
        picks.extend(rng.sample(pool, min(n, len(pool))))
    return picks


# ---------------------------------------------------------------------------
# server and client plumbing

class Server:
    """One `rlc_serve --socket` process in the run directory."""

    SOCKET = "s.sock"
    live = set()  # started and not yet stopped; main() stops any left

    def __init__(self, bins, threads):
        self.bins = bins
        self.threads = threads
        self.proc = None
        self.flags = ["--socket", self.SOCKET, "--threads", str(threads),
                      "--shards", "1"]

    def start(self):
        """Launch and wait until a ping is answered; returns seconds."""
        if os.path.exists(self.SOCKET):
            os.unlink(self.SOCKET)
        t0 = time.perf_counter()
        with open("serve.log", "a") as log:
            self.proc = subprocess.Popen([str(self.bins["rlc_serve"])] +
                                         self.flags, stdout=subprocess.DEVNULL,
                                         stderr=log)
        Server.live.add(self)
        while True:
            try:
                if self.admin({"op": "ping"}).get("status") == "ok":
                    return time.perf_counter() - t0
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise BenchError("rlc_serve exited during start-up")
            if time.perf_counter() - t0 > 30:
                raise BenchError("rlc_serve not ready after 30 s")
            time.sleep(0.00005)

    def admin(self, obj):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(30)
            s.connect(self.SOCKET)
            s.sendall((json.dumps(obj) + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(1 << 20)
                if not chunk:
                    raise OSError("connection closed")
                buf += chunk
        return json.loads(buf)

    def snapshot(self):
        """Registry metrics plus shard cache stats."""
        m = self.admin({"op": "metrics", "format": "json"})["result"]["metrics"]
        st = self.admin({"op": "stats"})["result"]
        cache = {"hits": 0, "misses": 0, "evictions": 0}
        for sh in st["shards"]:
            for k in cache:
                cache[k] += sh["cache"][k]
        return {"metrics": m, "cache": cache, "t": time.perf_counter()}

    def stop(self):
        if self.proc is None:
            return
        t0 = time.perf_counter()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        Server.live.discard(self)
        waited = time.perf_counter() - t0
        if waited > 2.0:
            say(f"  note: rlc_serve took {waited:.1f} s to drain and exit")


def run_client(bins, mode, infile, conns, seconds, out, **opt):
    cmd = [bins["pb_client"], "--socket", Server.SOCKET, "--mode", mode,
           "--in", infile, "--conns", conns, "--seconds", f"{seconds:.3f}",
           "--out", out]
    for k in ("rate", "window", "seed", "expect", "responses"):
        if opt.get(k) is not None:
            cmd += [f"--{k}", opt[k]]
    t0 = time.perf_counter()
    summary = run_json(cmd, timeout=seconds + 90)
    if time.perf_counter() - t0 > seconds + 5:
        say(f"  note: pb_client {mode} took {time.perf_counter() - t0:.1f} s "
            f"for a {seconds:.1f} s phase")
    records = []
    with open(out) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            records.append({
                "i": int(p[0]), "cls": p[1], "status": p[2],
                "lat_us": float(p[3]), "late_us": float(p[4]),
                "queue_us": float(p[5]), "cache_us": float(p[6]),
                "solve_us": float(p[7]), "match": int(p[8]),
                "t": float(p[9])})
    return summary, records


def read_responses(path):
    out = {}
    with open(path) as f:
        for line in f:
            i, _, body = line.rstrip("\n").partition("\t")
            out[int(i)] = body
    return out


# ---------------------------------------------------------------------------
# registry deltas -> per-layer metrics

def _total(m, name):
    """Counter value, or a histogram's sum."""
    if name in m["counters"]:
        return m["counters"][name]
    h = m["histograms"].get(name)
    return h["sum"] if h else 0


def _count(m, name):
    h = m["histograms"].get(name)
    return h["count"] if h else 0


def registry_layers(before, after, threads):
    """Per-layer metrics from two registry snapshots around a pass."""
    a, b = after["metrics"], before["metrics"]

    def d(name):
        return _total(a, name) - _total(b, name)

    def dc(name):
        return _count(a, name) - _count(b, name)

    wall_ns = (after["t"] - before["t"]) * 1e9
    cache_hits = after["cache"]["hits"] - before["cache"]["hits"]
    cache_miss = after["cache"]["misses"] - before["cache"]["misses"]
    return {
        "svc.cache.hit_ratio": ratio(cache_hits, cache_hits + cache_miss),
        "svc.cache.evictions":
            after["cache"]["evictions"] - before["cache"]["evictions"],
        "svc.batch_size.mean": ratio(d("svc.batch_size"),
                                     dc("svc.batch_size")),
        "core.nm_fallback_ratio": ratio(d("optimizer.nm_fallbacks"),
                                        d("optimizer.calls")),
        "core.exact_calls": d("exact.threshold.calls"),
        "math.newton2d.iters_per_solve": ratio(d("newton.2d.iterations"),
                                               d("newton.2d.solves")),
        "math.newton2d.failure_ratio": ratio(d("newton.2d.failures"),
                                             d("newton.2d.solves")),
        "math.brent.root.iters_per_solve": ratio(d("brent.root.iterations"),
                                                 d("brent.root.solves")),
        "math.brent.minimize.iters_per_solve":
            ratio(d("brent.minimize.iterations"), d("brent.minimize.solves")),
        "math.bracket.evals_per_scan": ratio(d("brent.bracket.evals"),
                                             d("brent.bracket.scans")),
        "tline.evals_per_exact": ratio(d("tline.transfer.evals"),
                                       d("exact.threshold.calls")),
        "tline.batch_passes": d("tline.transfer.batch_passes"),
        "laplace.talbot.f_evals_per_call":
            ratio(d("talbot.invert.f_evals") + d("talbot.contour.f_evals"),
                  d("talbot.invert.calls") + d("talbot.contours")),
        "laplace.euler.f_evals_per_call": ratio(d("euler.invert.f_evals"),
                                                d("euler.invert.calls")),
        "laplace.talbot.contours": d("talbot.contours"),
        "exec.pool.util": ratio(d("exec.pool.busy_ns"), wall_ns * threads),
        "exec.pool.queue_depth_max":
            a["gauges"].get("exec.pool.queue_depth_max", 0),
    }


def stage_layers(records):
    """svc.* stage times from traced responses (µs)."""
    traced = [r for r in records if r["status"] == "ok" and r["queue_us"] >= 0]
    out = {
        "svc.queue_us.p50": pct([r["queue_us"] for r in traced], 0.5),
        "svc.cache_us.p50": pct([r["cache_us"] for r in traced], 0.5),
        "svc.wire_us.p50": pct([r["lat_us"] - r["queue_us"] - r["cache_us"] -
                                r["solve_us"] for r in traced], 0.5),
    }
    for cls in CLASSES:
        out[f"svc.solve_us.{cls}.p50"] = pct(
            [r["solve_us"] for r in traced if r["cls"] == cls], 0.5)
    return out


PER_LAYER = (
    ["svc.queue_us.p50", "svc.cache_us.p50", "svc.wire_us.p50"] +
    [f"svc.solve_us.{c}.p50" for c in CLASSES] +
    ["svc.cache.hit_ratio", "svc.cache.evictions", "svc.batch_size.mean",
     "io.parse_us", "io.render_us",
     "core.nm_fallback_ratio", "core.exact_calls",
     "math.newton2d.iters_per_solve", "math.newton2d.failure_ratio",
     "math.brent.root.iters_per_solve", "math.brent.minimize.iters_per_solve",
     "math.bracket.evals_per_scan",
     "tline.evals_per_exact", "tline.batch_passes", "tline.batch_eval_ns",
     "laplace.talbot.f_evals_per_call", "laplace.euler.f_evals_per_call",
     "laplace.talbot.contours",
     "exec.pool.util", "exec.pool.queue_depth_max",
     "ringosc.ring_s.max", "ringosc.ring_s.sum",
     "spice.steps_accepted", "spice.steps_rejected", "spice.newton_per_step",
     "spice.step_us", "spice.rc_fixture_us", "spice.rlc_fixture_us",
     "linalg.lu.factor_us", "linalg.lu.refactor_us", "linalg.lu.solve_us",
     "obs.trace_overhead"] +
    [f"cold.{c}.p50_ms" for c in CLASSES])

PER_LAYER_UNITS = {
    "svc.cache.hit_ratio": "ratio", "svc.cache.evictions": "count",
    "svc.batch_size.mean": "count", "core.nm_fallback_ratio": "ratio",
    "core.exact_calls": "count", "math.newton2d.iters_per_solve": "count",
    "math.newton2d.failure_ratio": "ratio",
    "math.brent.root.iters_per_solve": "count",
    "math.brent.minimize.iters_per_solve": "count",
    "math.bracket.evals_per_scan": "count", "tline.evals_per_exact": "count",
    "tline.batch_passes": "count", "tline.batch_eval_ns": "ns",
    "laplace.talbot.f_evals_per_call": "count",
    "laplace.euler.f_evals_per_call": "count",
    "laplace.talbot.contours": "count", "exec.pool.util": "ratio",
    "exec.pool.queue_depth_max": "count", "ringosc.ring_s.max": "s",
    "ringosc.ring_s.sum": "s", "spice.steps_accepted": "count",
    "spice.steps_rejected": "count", "spice.newton_per_step": "count",
    "obs.trace_overhead": "ratio",
}


def unit_of(name):
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    return "us"


# ---------------------------------------------------------------------------
# workloads

class Outcome:
    """What one run measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_status = {}
        self.problems = []  # reasons the run is not correct
        self.metrics = {}

    def count(self, status, n=1):
        self.by_status[status] = self.by_status.get(status, 0) + n

    def problem(self, msg):
        self.problems.append(msg)


def setup_server(bins, threads):
    """SERVER_SETUPS launches to a ready socket; the last server stays up."""
    times = []
    server = None
    for rep in range(SERVER_SETUPS):
        server = Server(bins, threads)
        times.append(server.start())
        if rep + 1 < SERVER_SETUPS:
            server.stop()
    return server, statistics.median(times)


def cold_pass(bins, n, reqs, seconds, traced, probe=()):
    """One cold pass against a fresh server: returns (setup_s, summary,
    records, responses, before, after, probe statuses).  The probe queries
    are sent after the timed pass and are neither timed nor counted."""
    tag = "traced" if traced else "plain"
    infile = f"cold-{tag}.req"
    write_requests(infile, reqs, trace_prefix="pb-" if traced else None)
    server, setup_s = setup_server(bins, n)
    try:
        before = server.snapshot()
        summary, records = run_client(
            bins, "closed", infile, n, seconds, f"cold-{tag}.tsv",
            window=COLD_WINDOW, responses=f"cold-{tag}.resp")
        after = server.snapshot()
        probed = [(label, server.admin(q).get("status", "malformed"))
                  for label, q in probe]
    finally:
        server.stop()
    return (setup_s, summary, records, read_responses(f"cold-{tag}.resp"),
            before, after, probed)


def check_cold(bins, reqs, records, responses, seed, out):
    answered = []
    for r in records:
        cls, q = reqs[r["i"]]
        out.attempted += 1
        try:
            resp = json.loads(responses[r["i"]])
        except (KeyError, ValueError):
            out.failed += 1
            out.count("malformed")
            out.problem(f"request {r['i']}: unreadable response")
            continue
        verdict, why = check_answer(cls, q, resp)
        status = resp.get("status", "malformed")
        out.count("wrong_answer" if status == "ok" and verdict == "wrong"
                  else status)
        if verdict == "ok":
            answered.append((cls, q, responses[r["i"]]))
        else:
            out.failed += 1
            if verdict == "wrong":
                out.problem(f"request {r['i']} ({cls}): {why}")
    picks = grid_subsample(random.Random(seed * 7919 + 1), answered)
    with open("grid.in", "w") as f:
        for cls, q, body in picks:
            f.write(f"{cls}\t{json.dumps(q)}\t{body}\n")
    grid = run_json([bins["pb_layers"], "grid-check", "grid.in"], timeout=120)
    if grid["failed"]:
        out.failed += grid["failed"]
        out.count("ok", -grid["failed"])
        out.count("wrong_answer", grid["failed"])
        out.problem(f"{grid['failed']} of {grid['checked']} answers fail the "
                    f"brute-force grid check (tolerance {grid['tolerance']})")
    say(f"grid check: {grid['checked']} answers, worst excess "
        f"{grid['worst_excess']:.2e} (tolerance {grid['tolerance']})")


def cold_metrics(records, seconds):
    done = [r for r in records if r["t"] <= seconds]
    lat = [r["lat_us"] / 1e3 for r in records]
    per_class = {c: pct([r["lat_us"] / 1e3 for r in records
                         if r["cls"] == c], 0.5) for c in CLASSES}
    return len(done) / seconds, pct(lat, 0.5), pct(lat, 0.99), per_class


def workload_cold(bins, args, stamp, out):
    n = nproc()
    rng = random.Random(args.seed)
    # More inputs than a run can consume (~1000 q/s on 4 vCPUs); every key
    # is distinct.  A run that used them all up is reported, not trusted.
    reqs = gen_mix(rng, max(20000, int(args.seconds * 4000)), stamp)
    seconds = args.seconds * (TRACE_SPLIT if args.trace else 1.0)

    setup_s, summary, records, responses, before, after, probed = cold_pass(
        bins, n, reqs, seconds, False, probe=defect_probes(rng))
    check_cold(bins, reqs, records, responses, args.seed, out)
    for label in dict.fromkeys(lb for lb, _ in probed):
        got = [st for lb, st in probed if lb == label]
        say(f"known defect, not counted: {len(got)} x {label} answered " +
            ", ".join(f"{st} {got.count(st)}" for st in sorted(set(got))))
    out.attempted += summary["transport_errors"]
    out.failed += summary["transport_errors"]
    if summary["transport_errors"]:
        out.count("transport_error", summary["transport_errors"])
        out.problem(f"{summary['transport_errors']} transport errors")
    if len(records) + summary["transport_errors"] >= len(reqs):
        out.problem(f"cold_mix used up all {len(reqs)} inputs before the "
                    "time was up")
    cache_hits = after["cache"]["hits"] - before["cache"]["hits"]
    if cache_hits:
        out.problem(f"cold_mix hit the cache {cache_hits} times: keys repeat")
    qps, p50, p99, per_class = cold_metrics(records, seconds)
    say(f"cold_mix: {len(records)} queries on {n} connections in "
        f"{seconds:.1f} s; evictions "
        f"{after['cache']['evictions'] - before['cache']['evictions']}")
    say(f"  cold.qps {qps:.2f} 1/s | cold.p50_ms {p50:.3f} ms | "
        f"cold.p99_ms {p99:.3f} ms")
    say("  " + " | ".join(f"cold.{c}.p50_ms {v:.3f} ms"
                          for c, v in per_class.items()))
    out.metrics.update({"setup_s": setup_s, "throughput_per_s": qps,
                        "latency_p50_ms": p50})
    if not args.trace:
        return

    # Traced replay of the same inputs against a fresh server.
    _, _, trecords, tresponses, tbefore, tafter, _ = cold_pass(
        bins, n, reqs, seconds, True)
    tfailed = sum(1 for r in trecords if r["status"] != "ok")
    out.attempted += len(trecords)
    out.failed += tfailed
    for r in trecords:
        out.count(r["status"])
    if tfailed:
        out.problem(f"{tfailed} traced cold queries failed")
    tqps, _, _, tper_class = cold_metrics(trecords, seconds)
    layers = registry_layers(tbefore, tafter, n)
    layers.update(stage_layers(trecords))
    with open("io.resp", "w") as f:
        for i, body in list(tresponses.items())[:2000]:
            f.write(f"{i}\t{body}\n")
    with open("io.req", "w") as f, open("cold-traced.req") as src:
        for _, line in zip(range(2000), src):
            f.write(line)
    io = run_json([bins["pb_layers"], "io", "io.req", "io.resp"], timeout=120)
    tl = run_json([bins["pb_layers"], "tline"], timeout=120)
    if not tl["ok"]:
        out.problem(f"batch kernel disagrees with Eq. (1): {tl['max_rel_err']}")
    layers.update({
        "io.parse_us": io["parse_us"], "io.render_us": io["render_us"],
        "tline.batch_eval_ns": tl["batch_eval_ns"],
        "obs.trace_overhead": ratio(qps, tqps),
    })
    layers.update({f"cold.{c}.p50_ms": v for c, v in tper_class.items()})
    out.metrics = layers


def warm_setup(bins, n, cands):
    """Launch, ping and warm every candidate key; returns (server, seconds,
    responses)."""
    server = Server(bins, n)
    t0 = time.perf_counter()
    server.start()
    run_client(bins, "closed", "warm.cand", n, 600.0, "warmup.tsv",
               window=1, responses="warmup.resp")
    return server, time.perf_counter() - t0, read_responses("warmup.resp")


def judge_warm(records, sent, out):
    """Every warm request must come back ok and equal to the cold answer
    recorded for its key during set-up (pb_client's match column)."""
    out.attempted += sent
    lost = sent - len(records)
    wrong = sum(1 for r in records if r["status"] == "ok" and r["match"] != 1)
    failed = sum(1 for r in records if r["status"] != "ok")
    out.failed += lost + wrong + failed
    for r in records:
        out.count("wrong_answer" if r["status"] == "ok" and r["match"] != 1
                  else r["status"])
    if lost:
        out.count("transport_error", lost)
        out.problem(f"{lost} requests unanswered")
    if wrong:
        out.problem(f"{wrong} warm answers differ from the cold answer "
                    "recorded for their key")
    if failed:
        out.problem(f"{failed} warm requests failed")


def judge_lateness(records, out, tag):
    """Mark the run invalid when the open-loop generator fell behind."""
    late = sum(1 for r in records if r["late_us"] > LATE_US)
    share = ratio(late, len(records))
    say(f"  generator lateness ({tag}): p50 "
        f"{pct([r['late_us'] for r in records], 0.5):.1f} us, p99 "
        f"{pct([r['late_us'] for r in records], 0.99):.1f} us, "
        f"{share:.4%} of {len(records)} requests > {LATE_US:.0f} us late")
    if share > LATE_SHARE_MAX:
        out.problem(f"INVALID: the open-loop generator fell behind "
                    f"({share:.2%} of requests > {LATE_US:.0f} us late)")


def warm_phase(bins, n, mode, seconds, seed, traced, rate, out, tag):
    infile = "warm-traced.req" if traced else "warm.req"
    conns = 1 if mode == "open" else n
    summary, records = run_client(
        bins, mode, infile, conns, seconds, f"warm-{tag}.tsv",
        rate=rate if mode == "open" else None,
        window=SAT_CONNS_WINDOW if mode == "saturate" else None, seed=seed,
        expect="warm.expect")
    judge_warm(records, summary["sent"], out)
    if mode == "open":
        judge_lateness(records, out, tag)
    return summary, records


def workload_warm(bins, args, stamp, out):
    n = nproc()
    rng = random.Random(args.seed)
    cands = gen_mix(rng, WARM_CANDIDATES, stamp)
    write_requests("warm.cand", cands)
    times = []
    server = None
    for _ in range(WARM_SETUPS):
        if server is not None:
            server.stop()
        server, secs, warm_resp = warm_setup(bins, n, cands)
        times.append(secs)
    setup_s = statistics.median(times)
    say("warm set-up times: " + ", ".join(f"{t:.3f}" for t in times) + " s")
    try:
        # Non-ok answers are not cached, so they cannot be replayed as hits
        # (cold_mix reports them); the first 256 answered keys are replayed.
        keys = [i for i in sorted(warm_resp)
                if json.loads(warm_resp[i]).get("status") == "ok"][:WARM_KEYS]
        if len(keys) < WARM_KEYS:
            raise BenchError(f"only {len(keys)} warm keys answered ok")
        key_reqs = [cands[i] for i in keys]
        write_requests("warm.req", key_reqs)
        write_requests("warm-traced.req", key_reqs, trace_prefix="pb-warm-")
        with open("warm.expect", "w") as f:
            for i in keys:
                f.write(normalize(warm_resp[i]) + "\n")
        say(f"warm_replay: {len(keys)} keys "
            f"({', '.join(f'{c} {sum(1 for k in key_reqs if k[0] == c)}' for c in CLASSES)}), "
            f"offered {WARM_RATE:.0f} q/s on 1 connection")

        open_s = args.seconds * (0.25 if args.trace else 0.5)
        sat_s = args.seconds * (0.25 if args.trace else 0.5)
        before = server.snapshot()
        _, open_rec = warm_phase(bins, n, "open", open_s, args.seed, False,
                                 WARM_RATE, out, "open")
        _, sat_rec = warm_phase(bins, n, "saturate", sat_s, args.seed,
                                False, None, out, "saturate")
        after = server.snapshot()
        lat = [r["lat_us"] for r in open_rec]
        p50 = pct(lat, 0.5)
        sat_qps = windowed_rate(sat_rec, sat_s)
        say(f"  warm.p50_us {p50:.2f} us | warm.p99_us {pct(lat, 0.99):.2f} "
            f"us | warm.sat_qps {sat_qps:.1f} 1/s (median of 1 s windows, "
            f"{n} connections x window {SAT_CONNS_WINDOW})")
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        if misses or not hits:
            out.problem(f"warm_replay missed the cache {misses} times")
        out.metrics.update({"setup_s": setup_s, "throughput_per_s": sat_qps,
                            "latency_p50_ms": p50 / 1e3})
        if not args.trace:
            return

        t_before = server.snapshot()
        _, topen = warm_phase(bins, n, "open", open_s, args.seed, True,
                              WARM_RATE, out, "traced-open")
        warm_phase(bins, n, "saturate", sat_s, args.seed, True, None, out,
                   "traced-saturate")
        t_after = server.snapshot()
        layers = registry_layers(t_before, t_after, n)
        layers.update(stage_layers(topen))
        io = run_json([bins["pb_layers"], "io", "warm.req", "warmup.resp"],
                      timeout=120)
        layers.update({
            "io.parse_us": io["parse_us"], "io.render_us": io["render_us"],
            "obs.trace_overhead":
                ratio(pct([r["lat_us"] for r in topen], 0.5), p50),
        })
        out.metrics = layers
    finally:
        server.stop()


def ring_periods(artifact):
    out = {}
    for table in artifact["tables"]:
        tech = table["title"].split()[0]
        for row in table["rows"]:
            out[f"{tech}@{row[0]:.1f}"] = row[1]
    return out


def check_ring(artifact, reference, out):
    """Periods against the committed reference, and the collapse onset."""
    got = ring_periods(artifact)
    for key, ref in reference["periods_ns"].items():
        out.attempted += 1
        val = got.get(key)
        if val is None or not val > 0 or abs(val / ref - 1) > RING_PERIOD_RTOL:
            out.failed += 1
            out.count("wrong_answer")
            out.problem(f"fig11 period {key}: {val} ns vs reference {ref} ns")
        else:
            out.count("ok")
    onset = artifact["metrics"].get("collapse_onset_100nm_nH_per_mm")
    lo, hi = COLLAPSE_BRACKET
    if onset is None or not lo < onset <= hi or onset != reference[
            "collapse_onset_100nm_nH_per_mm"]:
        out.problem(f"collapse onset {onset} nH/mm is not the reference "
                    f"{reference['collapse_onset_100nm_nH_per_mm']} in "
                    f"({lo}, {hi}]")
    if artifact.get("error"):
        out.problem(f"fig11 reported an error: {artifact['error']}")


def fig11_once(bins, n, art_dir, trace_file=None):
    """One `rlc_run fig11` alone; returns (process wall seconds, artifact)."""
    cmd = [str(bins["rlc_run"]), "fig11", "--threads", str(n), "--json",
           art_dir]
    if trace_file:
        cmd += ["--trace", trace_file]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True, timeout=170)
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        raise BenchError(f"rlc_run fig11 failed: {p.stderr[-500:]}")
    art_path = Path(art_dir) / "BENCH_fig11.json"
    artifact = json.loads(art_path.read_text())
    art_path.unlink()
    return wall, artifact


def workload_ring(bins, args, out):
    n = nproc()
    reference = json.loads((HERE / "ring_reference.json").read_text())
    times = []
    for _ in range(RING_SETUPS):
        # No timeout: subprocess waits for a timed child by polling with
        # sleeps of 0.5, 1, 2 ... ms, which rounds a ~1.5 ms launch up to
        # 1.5 or 3.5 ms at random.
        t0 = time.perf_counter()
        subprocess.run([str(bins["rlc_run"]), "--list"],
                       stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    setup_s = statistics.median(times)
    os.makedirs("art", exist_ok=True)

    walls = []
    artifact = None
    t_start = time.perf_counter()
    while not walls or (time.perf_counter() - t_start < args.seconds and
                        not args.trace):
        wall, artifact = fig11_once(bins, n, "art")
        walls.append(wall)
        check_ring(artifact, reference, out)
    fig11_s = statistics.median(walls)
    say(f"ring_fig11: {len(walls)} regeneration(s) on {n} threads, "
        f"ring.fig11_s {fig11_s:.3f} s (walls {', '.join(f'{w:.3f}' for w in walls)})")
    out.metrics.update({"setup_s": setup_s,
                        "throughput_per_s": 14 / fig11_s,
                        "latency_p50_ms": fig11_s * 1e3})
    if not args.trace:
        return

    traced_wall, _ = fig11_once(bins, n, "art", trace_file="fig11.trace")
    obs = artifact["observability"]["metrics"]
    ring = run_json([bins["pb_layers"], "ring", n], timeout=170)
    for name, ok in (("ring fixture period", ring["fixture_ok"]),
                     ("SparseLU residual", ring["lu_ok"]),
                     ("RC decay fixture", ring["rc_ok"]),
                     ("underdamped RLC fixture", ring["rlc_ok"])):
        out.attempted += 1
        out.count("ok" if ok else "wrong_answer")
        if not ok:
            out.failed += 1
            out.problem(f"{name} check failed")
    say(f"  spice fixtures: RC err {ring['rc_err_v']:.2e} V in "
        f"{ring['rc_us']:.0f} us, RLC (zeta {ring['rlc_zeta']:.3f}) err "
        f"{ring['rlc_err_v']:.2e} V in {ring['rlc_us']:.0f} us; ring fixture "
        f"period {ring['fixture_period_ns']:.6f} ns")
    layers = {
        "exec.pool.util": ratio(obs["counters"].get("exec.pool.busy_ns", 0),
                                artifact["wall_seconds"] * 1e9 *
                                artifact["threads"]),
        "exec.pool.queue_depth_max":
            obs["gauges"].get("exec.pool.queue_depth_max", 0),
        "ringosc.ring_s.max": ring["ring_s_max"],
        "ringosc.ring_s.sum": ring["ring_s_sum"],
        "spice.steps_accepted": ring["steps_accepted"],
        "spice.steps_rejected": ring["steps_rejected"],
        "spice.newton_per_step": ring["newton_per_step"],
        "spice.step_us": ring["step_us"],
        "spice.rc_fixture_us": ring["rc_us"],
        "spice.rlc_fixture_us": ring["rlc_us"],
        "linalg.lu.factor_us": ring["lu_factor_us"],
        "linalg.lu.refactor_us": ring["lu_refactor_us"],
        "linalg.lu.solve_us": ring["lu_solve_us"],
        "obs.trace_overhead": ratio(traced_wall, walls[0]),
    }
    out.metrics = layers


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    # A terminated benchmark still stops the servers it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        bins = build(build_dir)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    os.chdir(run_dir)  # keeps the socket path short
    out = Outcome()
    t_run = time.perf_counter()
    try:
        stamp = run_json([bins["pb_layers"], "stamp"], timeout=60)
        say(json.dumps({"stamp": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": nproc(),
            "cpu": cpu_model(), "simd": stamp["simd"],
            "compiler": stamp["compiler"], "version": stamp["version"],
            "server_flags": Server(bins, nproc()).flags,
            "warm_rate": WARM_RATE}}))
        if args.workload == "cold_mix":
            workload_cold(bins, args, stamp, out)
        elif args.workload == "warm_replay":
            workload_warm(bins, args, stamp, out)
        else:
            workload_ring(bins, args, out)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        print(f"perfbench: {args.workload}: {e!r}", file=sys.stderr)
        return 2
    finally:
        for server in list(Server.live):
            server.stop()
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    say(f"run wall {time.perf_counter() - t_run:.1f} s")
    say(f"fail_share {ratio(out.failed, out.attempted):.6f} "
        f"({out.failed} of {out.attempted}); by status: "
        + ", ".join(f"{k} {v}" for k, v in sorted(out.by_status.items())))
    for p in out.problems[:20]:
        say(f"CHECK FAILED: {p}")
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name in names:
        value = float(out.metrics.get(name, 0.0))
        unit = unit_of(name) if args.trace else UNITS[name]
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not out.problems,
                      "attempted": max(out.attempted, 1),
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

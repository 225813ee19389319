#!/usr/bin/env python3
"""perfbench/compare.py — compare two builds on the benchmark.

    python3 perfbench/compare.py BASE_CHECKOUT HEAD_CHECKOUT \\
        [--pairs 10] [--workload NAME ...] [--seed-base 1000]

Each checkout is a source tree holding BENCHMARK.json and perfbench/; each
builds in its own .bench_build on its first run.  The two sides run in
alternating pairs (base first on even pairs, head first on odd ones), one
seed per pair shared by both sides, at the head's run length.  For every
workload it prints one row per end-to-end metric: each side's median and
quartiles, the change of the medians, the share of pairs the head won, and
a verdict:

  better       at least ten pairs, the head won at least 9 in 10 of them
               and the medians differ by more than the base's own quartile
               spread
  worse        the head's median is worse than the base's by more than the
               metric's bound
  unresolved   a side's quartile spread exceeds the bound (unless every head
               run beats every base run)
  same         none of the above

Runs that report correct = false are listed and excluded.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def load_benchmark(root):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def run_once(root, command, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                       text=True, timeout=1200)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed} failed "
                           f"(exit {p.returncode}): {p.stderr[-400:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, base, head):
    """Section-8 rule over paired values (lists aligned by pair)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def beats(h, b):
        return h < b if lower else h > b

    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if beats(h, b))
    spread = max((b3 - b1) / bm if bm else 0.0, (h3 - h1) / hm if hm else 0.0)
    all_better = all(beats(h, b) for h in head for b in base)
    worse_by = (hm - bm) / bm if lower else (bm - hm) / bm
    if spread > bound and not all_better:
        v = "unresolved"
    elif (len(base) >= 10 and wins >= 0.9 * len(base) and
          abs(hm - bm) > (b3 - b1)):
        v = "better"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "same"
    return (b1, bm, b3), (h1, hm, h3), wins, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    bench = {"base": load_benchmark(args.base), "head": load_benchmark(args.head)}
    roots = {"base": args.base, "head": args.head}
    head = bench["head"]
    if bench["base"]["command"] != head["command"]:
        print("note: the two sides run different benchmark commands",
              file=sys.stderr)
    workloads = args.workload or [w["name"] for w in head["workloads"]]
    seconds = head["run_seconds"]
    if args.pairs < 10:
        print(f"note: {args.pairs} pairs (< 10) — verdicts are not claims",
              file=sys.stderr)

    values = {(w, side): {m["name"]: [] for m in head["end_to_end"]}
              for w in workloads for side in roots}
    rejected = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for w in workloads:
            results = {}
            for side in order:
                results[side] = run_once(roots[side], bench[side]["command"],
                                         w, seed, seconds)
                print(f"pair {i + 1}/{args.pairs} {w} {side}: " + ", ".join(
                    f"{k} {v['value']:.6g}"
                    for k, v in results[side]["metrics"].items()),
                    file=sys.stderr, flush=True)
            if not all(r["correct"] for r in results.values()):
                rejected.append((i, w, [s for s, r in results.items()
                                        if not r["correct"]]))
                continue
            for side, r in results.items():
                for m in head["end_to_end"]:
                    values[(w, side)][m["name"]].append(
                        r["metrics"][m["name"]]["value"])

    for w in workloads:
        print(f"\n{w} ({args.pairs} pairs, {seconds} s runs)")
        print(f"  {'metric':<18} {'unit':<5} {'base median [q1, q3]':<32} "
              f"{'head median [q1, q3]':<32} {'change':>8} {'wins':>6}  "
              "verdict")
        for m in head["end_to_end"]:
            base = values[(w, "base")][m["name"]]
            headv = values[(w, "head")][m["name"]]
            if not base:
                print(f"  {m['name']:<18} no valid pairs")
                continue
            (b1, bm, b3), (h1, hm, h3), wins, v = verdict(m, base, headv)
            change = (hm - bm) / bm if bm else 0.0
            print(f"  {m['name']:<18} {m['unit']:<5} "
                  f"{f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':<32} "
                  f"{f'{hm:.4g} [{h1:.4g}, {h3:.4g}]':<32} "
                  f"{change:>+8.1%} {f'{wins}/{len(base)}':>6}  {v}")
    for i, w, sides in rejected:
        print(f"pair {i + 1} {w}: correct = false on {', '.join(sides)}; "
              "excluded")
    return 0


if __name__ == "__main__":
    sys.exit(main())

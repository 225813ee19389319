#!/usr/bin/env python3
"""Tests of the benchmark's own answer checks (no build needed):

    python3 perfbench/test_checks.py

Each check must reject a corrupted answer and any non-`ok` status, the
input generator must draw only realizable buses and feasible noise budgets,
and a check must mark a run invalid when the open-loop generator fell behind.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SCALAR_Q = {"op": "query", "technology": "100nm", "l": 1e-6}
SCALAR_OK = {"schema": 1, "version": "1.0.0", "status": "ok", "code": 0,
             "result": {"h": 0.011, "k": 420.0, "tau": 4.1e-11,
                        "delay_per_length": 3.7e-9, "newton_iterations": 7,
                        "method": "newton", "from_cache": False,
                        "wall_seconds": 0.0004}}
POWER_Q = dict(SCALAR_Q, objective="power", delay_slack_eps=0.05)
POWER_OK = copy.deepcopy(SCALAR_OK)
POWER_OK["result"].update({
    "power_total": 1.2, "power_dynamic": 1.0, "power_short_circuit": 0.1,
    "power_leakage": 0.1, "delay_ref": 3.6e-9, "power_ref": 1.5,
    "power_constraint_active": True})
NOISE_Q = {"op": "query", "technology": "250nm", "l": 2e-6,
           "n_conductors": 2, "coupling_cc": 2e-11, "coupling_km": 0.3,
           "noise_vmax": 0.2}
NOISE_OK = copy.deepcopy(SCALAR_OK)
NOISE_OK["result"].update({"peak_noise": 0.19, "noise_width": 1e-11,
                           "constraint_active": True})


def error(status):
    return {"schema": 1, "version": "1.0.0", "status": status, "code": 6,
            "message": "query failed"}


def record(status="ok", match=1, late_us=5.0):
    return {"i": 0, "cls": "scalar", "status": status, "lat_us": 80.0,
            "late_us": late_us, "queue_us": -1, "cache_us": -1,
            "solve_us": -1, "match": match, "t": 0.5}


class ColdAnswerChecks(unittest.TestCase):
    def test_good_answers_pass(self):
        self.assertEqual(run.check_answer("scalar", SCALAR_Q, SCALAR_OK)[0],
                         "ok")
        self.assertEqual(run.check_answer("power", POWER_Q, POWER_OK)[0], "ok")
        self.assertEqual(run.check_answer("noise", NOISE_Q, NOISE_OK)[0], "ok")

    def test_corrupted_answers_fail(self):
        for key, bad in (("h", -0.011), ("k", 0.0), ("tau", None),
                         ("delay_per_length", float("inf"))):
            resp = copy.deepcopy(SCALAR_OK)
            resp["result"][key] = bad
            verdict, _ = run.check_answer("scalar", SCALAR_Q, resp)
            self.assertEqual(verdict, "wrong", key)

    def test_power_over_slack_fails(self):
        resp = copy.deepcopy(POWER_OK)
        resp["result"]["delay_per_length"] = 1.06 * 3.6e-9  # eps is 0.05
        self.assertEqual(run.check_answer("power", POWER_Q, resp)[0], "wrong")
        resp = copy.deepcopy(POWER_OK)
        resp["result"]["power_leakage"] = -1.0
        self.assertEqual(run.check_answer("power", POWER_Q, resp)[0], "wrong")

    def test_noise_over_budget_fails(self):
        resp = copy.deepcopy(NOISE_OK)
        resp["result"]["peak_noise"] = 0.21
        self.assertEqual(run.check_answer("noise", NOISE_Q, resp)[0], "wrong")

    def test_any_non_ok_status_is_wrong(self):
        for status in ("internal", "no_convergence", "invalid_argument"):
            for cls, q in (("scalar", SCALAR_Q), ("noise", NOISE_Q)):
                self.assertEqual(run.check_answer(cls, q, error(status))[0],
                                 "wrong", (status, cls))

    def test_generated_inputs_are_realizable_and_feasible(self):
        stamp = {"100nm": {"c": 1.2e-10, "vdd": 1.2},
                 "250nm": {"c": 2.0e-10, "vdd": 2.5}}
        mix = run.gen_mix(run.random.Random(3), 4000, stamp)
        buses = [q for cls, q in mix if cls in ("coupled", "noise")]
        self.assertTrue(any(q["n_conductors"] == 3 for q in buses))
        for q in buses:
            self.assertLess(abs(q["coupling_km"]),
                            run.km_bound(q["n_conductors"]))
        # Slack budgets: above the largest peak noise at the delay optimum
        # (0.607 VDD at 100 nm, 0.244 VDD at 250 nm).
        for cls, q in mix:
            if cls == "noise":
                worst = {"100nm": 0.607, "250nm": 0.244}[q["technology"]]
                self.assertGreater(q["noise_vmax"],
                                   worst * stamp[q["technology"]]["vdd"])

    def test_unrealizable_probe_lies_outside_the_bound(self):
        for q in run.gen_unrealizable(run.random.Random(1), 50):
            self.assertGreater(abs(q["coupling_km"]), run.km_bound(3))
            self.assertLess(abs(q["coupling_km"]), 1.0)
        labels = [label for label, _ in run.defect_probes(run.random.Random(1))]
        self.assertEqual(len(labels), run.PROBES + 1)


class WarmChecks(unittest.TestCase):
    def test_normalize_drops_delivery_metadata_only(self):
        cold = json.dumps(SCALAR_OK)
        hit = copy.deepcopy(SCALAR_OK)
        hit["result"].update({"from_cache": True, "wall_seconds": 1e-6,
                              "trace_id": "t1", "queue_us": 3.0,
                              "cache_us": 0.5, "solve_us": 0.0})
        self.assertEqual(run.normalize(cold), run.normalize(json.dumps(hit)))
        hit["result"]["k"] = 421.0
        self.assertNotEqual(run.normalize(cold),
                            run.normalize(json.dumps(hit)))

    def test_corrupted_warm_answer_fails(self):
        out = run.Outcome()
        run.judge_warm([record(), record(match=0)], 2, out)
        self.assertEqual(out.failed, 1)
        self.assertEqual(out.by_status.get("wrong_answer"), 1)
        self.assertTrue(out.problems)

    def test_internal_warm_status_fails(self):
        out = run.Outcome()
        run.judge_warm([record(status="internal", match=-1)], 1, out)
        self.assertEqual(out.failed, 1)
        self.assertTrue(out.problems)

    def test_lost_request_fails(self):
        out = run.Outcome()
        run.judge_warm([record()], 2, out)
        self.assertEqual((out.attempted, out.failed), (2, 1))
        self.assertTrue(out.problems)

    def test_clean_warm_run_passes(self):
        out = run.Outcome()
        run.judge_warm([record(), record()], 2, out)
        run.judge_lateness([record()] * 100, out, "test")
        self.assertEqual((out.failed, out.problems), (0, []))

    def test_late_generator_marks_run_invalid(self):
        out = run.Outcome()
        recs = [record()] * 90 + [record(late_us=2500.0)] * 10
        run.judge_lateness(recs, out, "test")
        self.assertTrue(any("INVALID" in p for p in out.problems))

    def test_isolated_wakeup_delays_do_not(self):
        out = run.Outcome()
        recs = [record()] * 99 + [record(late_us=2500.0)]
        run.judge_lateness(recs, out, "test")
        self.assertEqual(out.problems, [])


class RingChecks(unittest.TestCase):
    def setUp(self):
        self.ref = json.loads((run.HERE / "ring_reference.json").read_text())
        rows = {}
        for key, period in self.ref["periods_ns"].items():
            tech, l = key.split("@")
            rows.setdefault(tech, []).append([float(l), period, 0, 0, ""])
        self.artifact = {
            "tables": [{"title": f"{t} ring period vs l", "rows": r}
                       for t, r in rows.items()],
            "metrics": {"collapse_onset_100nm_nH_per_mm":
                        self.ref["collapse_onset_100nm_nH_per_mm"]}}

    def test_reference_passes(self):
        out = run.Outcome()
        run.check_ring(self.artifact, self.ref, out)
        self.assertEqual((out.failed, out.problems), (0, []))

    def test_wrong_period_fails(self):
        out = run.Outcome()
        self.artifact["tables"][0]["rows"][2][1] *= 1.01
        run.check_ring(self.artifact, self.ref, out)
        self.assertEqual(out.failed, 1)

    def test_moved_collapse_fails(self):
        for onset in (1.8, 2.6, None):
            out = run.Outcome()
            art = copy.deepcopy(self.artifact)
            art["metrics"]["collapse_onset_100nm_nH_per_mm"] = onset
            run.check_ring(art, self.ref, out)
            self.assertTrue(out.problems, onset)


if __name__ == "__main__":
    unittest.main()

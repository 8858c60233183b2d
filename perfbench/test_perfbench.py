#!/usr/bin/env python3
"""The benchmark's own tests: every workload smoke-runs at a tiny
window in both modes, the printed metric names are exactly those in
BENCHMARK.json, each fleet workload loads the layer it was chosen for,
and the report digest is a function of the seed.

    python3 perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark entry point under test)

SPEC = json.loads((run.REPO / "BENCHMARK.json").read_text())
TINY_MS = 2.0


def bench(workload: str, trace: int, seed: int = 7) -> dict:
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--window-ms", str(TINY_MS)],
        capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr[-2000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


def digest(workload: str, seed: int) -> str:
    res = run.perfbench(workload, seed, window_ms=TINY_MS)
    digests = {r["digest"] for r in res["reps"]}
    assert len(digests) == 1, digests
    return digests.pop()


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))

    def check_output(self, out: dict, spec_key: str):
        spec = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 2)
        self.assertEqual(
            {k: v["unit"] for k, v in out["metrics"].items()}, spec)

    def test_every_workload_smoke_runs_untraced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                out = bench(w, 0)
                self.check_output(out, "end_to_end")
                for name, m in out["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_every_workload_smoke_runs_traced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check_output(bench(w, 1), "per_layer")

    def test_fleet_workloads_load_their_layer(self):
        # At the default window: a tiny one is all set-up and drain.
        for w in run.FLEETS:
            with self.subTest(workload=w):
                res = run.perfbench(w, run.PINNED_SEED, trace=True)
                what, share, floor = run.layer_load(
                    w, run.census_of(res), run.median_of(res, "run_s"))
                self.assertGreaterEqual(share, floor, what)

    def test_same_seed_same_digest_other_seed_differs(self):
        for w in ("spine_high_load", "paper_fig7"):
            with self.subTest(workload=w):
                self.assertEqual(digest(w, 5), digest(w, 5))
                self.assertNotEqual(digest(w, 5), digest(w, 6))


if __name__ == "__main__":
    unittest.main()

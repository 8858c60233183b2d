#!/usr/bin/env python3
"""Paired A/B timing of two source trees on one perfbench workload.

    python3 tools/ab_bench.py --parent DIR --change DIR --workload W \\
        --pairs N [--seconds S]

Each tree is benchmarked with its own `perfbench/run.py --seed 42
--trace 0` (which builds that tree's Release binary into
DIR/.bench_build on first use); 42 is the seed at which run.py checks
the pinned report digests. Runs alternate between the trees to spread host drift over
both: odd-numbered pairs run the parent first, even-numbered pairs the
change first. For every end-to-end metric the script prints the
median and interquartile range of each side, the change/parent ratio
of the medians, and how many pairs the change won (by the metric's
better direction in the change tree's BENCHMARK.json). A run whose
report is not correct, or that fails operations, is reported and
makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# perfbench/run.py compares a report with its pinned digest only at
# this seed; at any other, `correct` just means the reps agree.
SEED = 42


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """One `perfbench/run.py` invocation in @p tree; its last JSON line."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", repr(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit(f"ab_bench: run failed in {tree}")
    return json.loads(lines[-1])


def better_directions(tree: Path) -> dict[str, str]:
    """End-to-end metric name -> "higher" or "lower"."""
    bench = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def iqr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ok = True
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            res = run_once(trees[side], args.workload, args.seconds)
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"pair {i} {side}: correct={res['correct']} "
                      f"failed={res['failed']}")
            runs[side].append(res["metrics"])
        p, c = (runs[s][-1]["sim_s_per_wall_s"]["value"]
                for s in ("parent", "change"))
        print(f"pair {i}/{args.pairs}: sim_s_per_wall_s parent {p:.6g} "
              f"change {c:.6g} ({c / p:.3f}x)", flush=True)

    better = better_directions(trees["change"])
    print(f"\n{args.workload}, {args.pairs} pairs, seed {SEED}, "
          f"{args.seconds:g} s per run")
    print(f"{'metric':<20} {'parent':>12} {'(IQR)':>10} {'change':>12} "
          f"{'(IQR)':>10} {'ratio':>7} {'won':>6}")
    for name, direction in better.items():
        par = [m[name]["value"] for m in runs["parent"]]
        chg = [m[name]["value"] for m in runs["change"]]
        mp, mc = statistics.median(par), statistics.median(chg)
        won = sum((c > p) if direction == "higher" else (c < p)
                  for p, c in zip(par, chg))
        ratio = f"{mc / mp:.3f}" if mp else "-"
        print(f"{name:<20} {mp:>12.6g} {iqr(par):>10.4g} {mc:>12.6g} "
              f"{iqr(chg):>10.4g} {ratio:>7} {won:>3}/{len(par)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired A/B timing of two source trees, or of one observer's cost.

    python3 tools/ab_bench.py --parent DIR --change DIR --workload W \\
        --pairs N [--seconds S]
    python3 tools/ab_bench.py --ablate attribution|health|metrics \\
        [--tree DIR] --pairs N [--seconds S]

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

--ablate pairs runs of one tree's built perfbench driver
(DIR/.bench_build/perfbench, built as perfbench/run.py builds it) on
observed_fleet with every observer on against runs without the named
one, alternating which goes first in the same way. It prints each
pair's differences, on minus off, of the run time (rebuilt from
per-epoch minima, as sim_s_per_wall_s is) and of the peak RSS, then
their medians and IQRs: the observer's cost. A rep that fails a
driver-side check, or a report whose digest moves when the observer
is off, makes the exit status 1.
"""

from __future__ import annotations

import argparse
import importlib.util
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


def ablate(tree: Path, observer: str, pairs: int, seconds: float) -> int:
    """Paired runs of observed_fleet with and without @p observer."""
    spec = importlib.util.spec_from_file_location(
        "tree_perfbench", tree / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
    spec.loader.exec_module(bench)
    try:
        return ablate_runs(bench, tree, observer, pairs, seconds)
    except bench.BenchError as e:
        raise SystemExit(f"ab_bench: {e}") from e


def ablate_runs(bench, tree: Path, observer: str, pairs: int,
                seconds: float) -> int:
    bench.build()
    workload = "observed_fleet"
    diffs: dict[str, list[float]] = {"run_s": [], "peak_rss_mb": []}
    sides: dict[str, dict[str, list[float]]] = {
        side: {k: [] for k in diffs} for side in ("on", "off")}
    ok = True
    for i in range(1, pairs + 1):
        order = ("on", "off") if i % 2 else ("off", "on")
        res = {}
        for side in order:
            res[side] = bench.perfbench(
                workload, SEED, seconds,
                ablate=observer if side == "off" else "")
            for k in diffs:
                key = "best_run_s" if k == "run_s" else k
                sides[side][k].append(res[side][key])
            for rep in res[side]["reps"]:
                if rep["failure"]:
                    ok = False
                    print(f"pair {i} {side}: {rep['failure']}")
        digests = {rep["digest"] for side in res for rep in res[side]["reps"]}
        if len(digests) != 1:
            ok = False
            print(f"pair {i}: digests differ with {observer} off: "
                  f"{sorted(digests)}")
        for k in diffs:
            diffs[k].append(sides["on"][k][-1] - sides["off"][k][-1])
        print(f"pair {i}/{pairs}: run s on {sides['on']['run_s'][-1]:.4f} "
              f"off {sides['off']['run_s'][-1]:.4f} "
              f"(cost {diffs['run_s'][-1]:+.4f}); peak RSS MB on "
              f"{sides['on']['peak_rss_mb'][-1]:.2f} off "
              f"{sides['off']['peak_rss_mb'][-1]:.2f} "
              f"(cost {diffs['peak_rss_mb'][-1]:+.2f})", flush=True)

    print(f"\n{workload} without {observer}, {pairs} pairs, seed {SEED}, "
          f"{seconds:g} s per run, tree {tree}")
    print(f"{'metric':<12} {'on':>10} {'off':>10} {'cost':>10} "
          f"{'(IQR)':>10} {'cost/on':>8}")
    for k, unit in (("run_s", "s"), ("peak_rss_mb", "MB")):
        on = statistics.median(sides["on"][k])
        off = statistics.median(sides["off"][k])
        cost = statistics.median(diffs[k])
        print(f"{k + ' ' + unit:<12} {on:>10.4f} {off:>10.4f} "
              f"{cost:>+10.4f} {iqr(diffs[k]):>10.4f} "
              f"{cost / on if on else 0.0:>8.1%}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--ablate", choices=("attribution", "health", "metrics"),
                    help="pair observed_fleet runs with and without this "
                         "observer in --tree instead of comparing trees")
    ap.add_argument("--tree", type=Path, default=Path("."),
                    help="the tree whose driver --ablate runs")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.ablate:
        if args.parent or args.change or args.workload:
            ap.error("--ablate takes --tree, not --parent, --change or "
                     "--workload")
        return ablate(args.tree.resolve(), args.ablate, args.pairs,
                      args.seconds)
    if not (args.parent and args.change and args.workload):
        ap.error("--parent, --change and --workload are required "
                 "without --ablate")

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

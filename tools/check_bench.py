#!/usr/bin/env python3
"""Smoke-artifact checker for the AgilePkgC benches and fleet demo.

CI's smoke checks live here, one validator per artifact kind. They hold
the fleet reproduction to its correctness properties: clean
conservation audits, exactly additive blame chains, and reports that
are byte-identical across thread grids and shard layouts. Every smoke
runs as a ctest labelled `smoke` (see CMakeLists.txt), so

    ctest --test-dir build -L smoke

runs CI's checks locally.

Usage:
    check_bench.py KIND FILE [KIND FILE ...]   # validate artifacts
    check_bench.py --run EXE KIND FILE [...]   # run EXE, then validate
    check_bench.py --run EXE --demo            # fleet demo, traced and
                                               # untraced, then validate
    check_bench.py --self-test                 # prove every check fires

KIND is one of: powercap, simcore, fleetscale, churn, trace, metrics,
blame, health. `--run` executes EXE in the working directory with the
inherited environment (the ctest sets the bench window there), after
deleting the artifacts it is expected to write.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import copy
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

# bench/bench_common.h: kBenchSchemaVersion, stamped into BENCH_*.json.
BENCH_SCHEMA = 4
# Blame report (obs/critpath.h) and alert log (obs/health.h) revisions.
BLAME_SCHEMA = 1
HEALTH_SCHEMA = 1

SLIS = ("latency", "availability", "power")
PACKAGE_STATES = {"PC0", "PC0idle", "ACC1", "PC1A", "PC2", "PC6"}
AUDIT_CHECKS = {"fleet_flights", "fleet_requests", "server_counters",
                "link_conservation", "energy", "budget"}
SIMCORE_TARGET = 1.5


class Rejected(Exception):
    """An artifact failed one of its checks."""


def require(ok: bool, what: str, ctx: object = None) -> None:
    if not ok:
        raise Rejected(what if ctx is None else f"{what}: {ctx}")


def require_schema(doc: dict, version: int) -> None:
    require(doc["schema_version"] == version,
            f"schema_version != {version}", doc.get("schema_version"))


def check_powercap(data: dict) -> str:
    require_schema(data, BENCH_SCHEMA)
    require(data["points"], "no sweep points recorded")
    for point in data["points"]:
        require(point["rack_budget_w"] > 0, "rack_budget_w > 0", point)
        require(point["tail_dominant"], "tail_dominant set", point)
        require(point["tail_stall_gate_us"] >= 0,
                "tail_stall_gate_us >= 0", point)
        require(point["tail_stall_dvfs_us"] >= 0,
                "tail_stall_dvfs_us >= 0", point)
        # Health fields must be present and sane. Alerts may be zero:
        # the smoke window is shorter than the slow burn window, so
        # firing is load-dependent.
        require(point["alerts_fired"] >= 0, "alerts_fired >= 0", point)
        require(point["worst_burn"] >= 0, "worst_burn >= 0", point)
        require(point["time_in_violation_us"] >= 0,
                "time_in_violation_us >= 0", point)
        require(point["audit_violations"] == 0,
                "point audit clean", point)
    breaker = data["breaker"]
    require(breaker["factor"] > 0, "breaker factor > 0", breaker)
    require(breaker["duration_ms"] > 0, "breaker duration > 0", breaker)
    require(breaker["worst_burn_sli"] in SLIS, "breaker SLI", breaker)
    require(breaker["audit_violations"] == 0, "breaker audit clean",
            breaker)
    return (f"{len(data['points'])} points, breaker trip fired "
            f"{breaker['alerts_fired']} alert(s)")


def check_simcore(data: dict) -> str:
    require_schema(data, BENCH_SCHEMA)
    require(data["queue"], "no queue workloads recorded")
    for point in data["queue"]:
        require(point["events_per_sec"] > 0, "events_per_sec > 0", point)
    require(data["fleet"]["wall_sec"] > 0, "fleet wall_sec > 0",
            data["fleet"])
    geomean = data["speedup_geomean"]
    require(geomean > 0, "speedup geomean > 0", geomean)
    # Advisory only: a 40 ms smoke on a shared runner is too noisy to
    # fail on; compare the uploaded BENCH_simcore.json trail instead.
    if geomean < SIMCORE_TARGET:
        print(f"::warning title=sim-core speedup below target::speedup "
              f"geomean {geomean}x < {SIMCORE_TARGET}x (advisory; smoke "
              f"runs on shared runners are timing-noisy)")
    return f"speedup geomean {geomean}x"


def check_fleetscale(data: dict) -> str:
    require_schema(data, BENCH_SCHEMA)
    require(data["grid"], "no grid cells recorded")
    for cell in data["grid"]:
        require(cell["events_per_sec"] > 0, "events_per_sec > 0", cell)
        require(cell["wall_sec"] > 0, "wall_sec > 0", cell)
        require(cell["num_shards"] > 0, "num_shards > 0", cell)
        require(cell["advance_sec"] >= 0, "advance_sec >= 0", cell)
        require(cell["shard_imbalance"] >= 1.0, "shard_imbalance >= 1",
                cell)
    require(data["deterministic_across_grid"] is True,
            "reports not byte-identical across the grid")
    best = max(data["grid"], key=lambda c: c["events_per_sec"])
    return (f"{len(data['grid'])} cells byte-identical; best "
            f"{best['servers']} servers x {best['threads']} threads -> "
            f"{best['events_per_sec']:.0f} events/s")


def check_churn(data: dict) -> str:
    require_schema(data, BENCH_SCHEMA)
    require(data["deterministic_across_layouts"] is True,
            "churn reports not byte-identical across layouts")
    by: dict[str, dict] = {}
    for s in data["scenarios"]:
        require(s["dispatched"] > 0, "dispatched > 0", s)
        require(0.0 <= s["availability"] <= 1.0, "availability in [0, 1]",
                s)
        require(s["audit_violations"] == 0, "scenario audit clean", s)
        by.setdefault(s["name"], s)
    require({"baseline", "faults", "faults+recovery"} <= set(by),
            "missing scenarios", sorted(by))
    require(by["baseline"]["lost_to_crash"] == 0,
            "baseline lost work to crashes", by["baseline"])
    faults, rec = by["faults"], by["faults+recovery"]
    require(faults["lost_to_crash"] > 0, "churn scenario destroyed no work")
    require(rec["failovers"] > 0, "recovery never failed over")
    require(rec["timeouts"] > 0, "no client timeout ever fired")
    require(rec["availability"] >= faults["availability"],
            "recovery lowered availability", (rec, faults))
    return (f"{faults['lost_to_crash']} crash losses -> "
            f"{rec['failovers']} failovers ({rec['timeouts']} timeouts), "
            f"availability {faults['availability']:.4%} -> "
            f"{rec['availability']:.4%}")


def check_trace(trace: dict) -> str:
    events = trace["traceEvents"]
    require(events, "empty trace")
    for ev in events:
        require("ph" in ev and "pid" in ev, "event without ph/pid", ev)
        if ev["ph"] != "M":
            require("ts" in ev, "event without ts", ev)
    phases = {ev["ph"] for ev in events}
    require("X" in phases, "no complete spans", phases)
    require({"s", "f"} <= phases, "no flow events", phases)
    names = {ev.get("name") for ev in events}
    require("request" in names, "no request spans traced")
    require("seg_serve" in names, "no segment spans traced")
    require(names & PACKAGE_STATES, "no package power-state spans traced")
    spans = sum(1 for ev in events if ev["ph"] != "M")
    return f"{spans} events, {len(names)} names"


def check_metrics(lines: list) -> str:
    require(lines[0] == "t_us,series,entity,value", "metrics header",
            lines[0])
    require(len(lines) > 1, "no metric samples")
    return f"{len(lines) - 1} rows"


def check_blame(blame: dict) -> str:
    """Online attribution works with tracing on or off, so one check set
    applies to the traced and the untraced report alike."""
    require_schema(blame, BLAME_SCHEMA)
    require(blame["requests"] > 0, "no requests attributed")
    require(blame["incomplete"] == 0, "incomplete requests",
            blame["incomplete"])
    require(blame["trace_drops"] == 0, "trace drops", blame["trace_drops"])
    require(blame["violations"] == 0, "additivity violations",
            blame["violations"])
    require(blame["segments"], "no segment vocabulary")
    labels = [b["band"] for b in blame["bands"]]
    require(labels == ["p50", "p95", "p99", "p999", "p100"], "band labels",
            labels)
    for band in blame["bands"]:
        if band["count"] == 0:
            continue
        total = sum(band["blame_us"].values())
        require(abs(total - band["e2e_mean_us"]) <
                1e-6 * max(1.0, band["e2e_mean_us"]),
                "band blame does not sum to its e2e mean", band)
    require(blame["samples"], "no exact-tick samples")
    for s in blame["samples"]:
        require(sum(s["seg_ticks"].values()) == s["e2e_ticks"],
                "sample segments do not sum to e2e ticks", s)
    return (f"{blame['requests']} requests, {len(blame['samples'])} "
            f"samples exactly additive")


def check_health(health: dict) -> str:
    require_schema(health, HEALTH_SCHEMA)
    require(health["slo"]["latency_threshold_us"] > 0,
            "latency threshold > 0", health["slo"])
    # A rolling-window p99 path that returned 0 would otherwise pass;
    # the demo keeps every latency sample.
    require(health["worst_window_p99_us"] > 0, "window p99 > 0")
    require(health["latency_samples_dropped"] == 0,
            "latency samples dropped")
    require(len(health["policies"]) >= 2, "burn policies",
            health["policies"])
    for pol in health["policies"]:
        require(pol["long_us"] > pol["short_us"] > 0, "policy windows",
                pol)
        require(pol["threshold"] > 0, "policy threshold > 0", pol)
        require(pol["severity"] in ("page", "ticket"), "severity", pol)
    require(isinstance(health["alerts"], list), "alerts is a list")
    for ev in health["alerts"]:
        require(ev["kind"] in ("fire", "resolve"), "alert kind", ev)
        require(ev["sli"] in SLIS, "alert SLI", ev)
        require(ev["t_us"] >= 0 and ev["burn_long"] >= 0, "alert values",
                ev)
    # Any conservation violation on the demo is a simulator bug.
    audit = health["audit"]
    require(audit["audits"] > 0, "auditor never ran")
    require(audit["checks"] >= audit["audits"], "audit checks", audit)
    require(audit["violations"] == 0, "audit violations", audit)
    require(set(audit["by_check"]) == AUDIT_CHECKS, "audit check families",
            audit)
    return (f"{len(health['alerts'])} alert events, {audit['audits']} "
            f"audits x clean")


def load_json(path: Path):
    with open(path) as f:
        return json.load(f)


def load_lines(path: Path):
    with open(path) as f:
        return f.read().splitlines()


VALIDATORS = {
    "powercap": (load_json, check_powercap),
    "simcore": (load_json, check_simcore),
    "fleetscale": (load_json, check_fleetscale),
    "churn": (load_json, check_churn),
    "trace": (load_json, check_trace),
    "metrics": (load_lines, check_metrics),
    "blame": (load_json, check_blame),
    "health": (load_json, check_health),
}

# The fleet demo's artifacts: one traced run writes all four, a second
# run writes only the blame report, with tracing off.
DEMO_TRACED = {"APC_TRACE_OUT": ("trace", "fleet_trace.json"),
               "APC_METRICS_OUT": ("metrics", "fleet_metrics.csv"),
               "APC_ATTR_OUT": ("blame", "fleet_blame.json"),
               "APC_HEALTH_OUT": ("health", "fleet_health.json")}
DEMO_UNTRACED = {"APC_ATTR_OUT": ("blame", "fleet_blame_untraced.json")}


def validate(kind: str, path: Path) -> bool:
    """Check one artifact; report and return whether it passed."""
    load, check = VALIDATORS[kind]
    try:
        require(path.is_file() and path.stat().st_size > 0,
                "missing or empty", path)
        summary = check(load(path))
    except (Rejected, KeyError, TypeError, ValueError, IndexError) as e:
        print(f"FAIL {kind} {path}: {type(e).__name__}: {e}")
        return False
    print(f"{kind} OK ({path}): {summary}")
    return True


def run(exe: str, outputs: list, extra_env: dict | None = None) -> bool:
    """Run @p exe after deleting the @p outputs it must write."""
    extra_env = extra_env or {}
    for path in outputs:
        path.unlink(missing_ok=True)
    print("$", *(f"{k}={v}" for k, v in extra_env.items()), exe, flush=True)
    rc = subprocess.run([exe], env=dict(os.environ, **extra_env),
                        check=False).returncode
    if rc != 0:
        print(f"FAIL {exe} exited with status {rc}")
    return rc == 0


def run_demo(exe: str) -> bool:
    ok = True
    for outs in (DEMO_TRACED, DEMO_UNTRACED):
        env = {var: path for var, (_, path) in outs.items()}
        if not run(exe, [Path(p) for p in env.values()], env):
            return False
        ok &= all([validate(kind, Path(path))
                   for kind, path in outs.values()])
    if not ok:
        return False
    # Attribution is pure observation: tracing must not change it.
    traced = DEMO_TRACED["APC_ATTR_OUT"][1]
    untraced = DEMO_UNTRACED["APC_ATTR_OUT"][1]
    if not filecmp.cmp(traced, untraced, shallow=False):
        print(f"FAIL {traced} and {untraced} differ: tracing changed "
              f"the blame report")
        return False
    print("blame reports identical with and without tracing")
    return True


# ---- self-test -------------------------------------------------------------
# A minimal passing artifact per kind, and mutations that each break one
# check. Every mutation must be rejected by a Rejected (not a crash), so
# a check that went vacuous in an edit fails the self-test.

DELETE = object()


def _minimal() -> dict:
    band = lambda name, count, e2e, blame: {  # noqa: E731
        "band": name, "count": count, "e2e_mean_us": e2e,
        "blame_us": blame}
    scenario = lambda name, lost, failovers, timeouts, avail: {  # noqa: E731
        "name": name, "dispatched": 100, "availability": avail,
        "audit_violations": 0, "lost_to_crash": lost,
        "failovers": failovers, "timeouts": timeouts}
    return {
        "powercap": {
            "schema_version": BENCH_SCHEMA,
            "points": [{"rack_budget_w": 200.0, "tail_dominant": "serve",
                        "tail_stall_gate_us": 0, "tail_stall_dvfs_us": 0,
                        "alerts_fired": 0, "worst_burn": 0,
                        "time_in_violation_us": 0, "audit_violations": 0}],
            "breaker": {"factor": 0.35, "duration_ms": 12,
                        "worst_burn_sli": "power", "alerts_fired": 2,
                        "audit_violations": 0}},
        "simcore": {
            "schema_version": BENCH_SCHEMA,
            "queue": [{"events_per_sec": 1e7}],
            "fleet": {"wall_sec": 0.05}, "speedup_geomean": 3.0},
        "fleetscale": {
            "schema_version": BENCH_SCHEMA, "deterministic_across_grid": True,
            "grid": [{"servers": 64, "threads": 1, "events_per_sec": 1e7,
                      "wall_sec": 0.5, "num_shards": 1, "advance_sec": 0.4,
                      "shard_imbalance": 1.0}]},
        "churn": {
            "schema_version": BENCH_SCHEMA,
            "deterministic_across_layouts": True,
            "scenarios": [scenario("baseline", 0, 0, 0, 1.0),
                          scenario("faults", 5, 0, 0, 0.95),
                          scenario("faults+recovery", 0, 5, 2, 0.99)]},
        "trace": {"traceEvents": [
            {"ph": "M", "pid": 0, "name": "process_name"},
            {"ph": "X", "pid": 0, "ts": 0, "name": "request"},
            {"ph": "s", "pid": 0, "ts": 0, "name": "seg_serve"},
            {"ph": "f", "pid": 1, "ts": 1, "name": "PC1A"}]},
        "metrics": ["t_us,series,entity,value",
                    "200.000,fleet.pkg_power_w,,241.4"],
        "blame": {
            "schema_version": BLAME_SCHEMA, "requests": 1, "incomplete": 0,
            "trace_drops": 0, "violations": 0, "segments": ["serve", "queue"],
            "bands": [band("p50", 1, 2.0, {"serve": 1.5, "queue": 0.5}),
                      band("p95", 0, 0.0, {}), band("p99", 0, 0.0, {}),
                      band("p999", 0, 0.0, {}), band("p100", 0, 0.0, {})],
            "samples": [{"e2e_ticks": 3, "seg_ticks": {"serve": 2,
                                                       "queue": 1}}]},
        "health": {
            "schema_version": HEALTH_SCHEMA,
            "slo": {"latency_threshold_us": 2000},
            "worst_window_p99_us": 1016.7, "latency_samples_dropped": 0,
            "policies": [{"long_us": 12000, "short_us": 1000,
                          "threshold": 14.4, "severity": "page"},
                         {"long_us": 72000, "short_us": 6000,
                          "threshold": 6, "severity": "ticket"}],
            "alerts": [{"kind": "fire", "sli": "latency", "t_us": 0,
                        "burn_long": 20.0}],
            "audit": {"audits": 1, "checks": 6, "violations": 0,
                      "by_check": {c: 0 for c in AUDIT_CHECKS}}},
    }


# (kind, dotted path, new value): each breaks exactly one check.
MUTATIONS = [
    ("powercap", "schema_version", 3),
    ("powercap", "points", []),
    ("powercap", "points.0.rack_budget_w", 0),
    ("powercap", "points.0.tail_dominant", ""),
    ("powercap", "points.0.tail_stall_gate_us", -1),
    ("powercap", "points.0.tail_stall_dvfs_us", -1),
    ("powercap", "points.0.alerts_fired", -1),
    ("powercap", "points.0.worst_burn", -1),
    ("powercap", "points.0.time_in_violation_us", -1),
    ("powercap", "points.0.audit_violations", 1),
    ("powercap", "breaker.factor", 0),
    ("powercap", "breaker.duration_ms", 0),
    ("powercap", "breaker.worst_burn_sli", "cost"),
    ("powercap", "breaker.audit_violations", 1),
    ("simcore", "schema_version", 3),
    ("simcore", "queue", []),
    ("simcore", "queue.0.events_per_sec", 0),
    ("simcore", "fleet.wall_sec", 0),
    ("simcore", "speedup_geomean", 0),
    ("fleetscale", "schema_version", 5),
    ("fleetscale", "grid", []),
    ("fleetscale", "grid.0.events_per_sec", 0),
    ("fleetscale", "grid.0.wall_sec", 0),
    ("fleetscale", "grid.0.num_shards", 0),
    ("fleetscale", "grid.0.advance_sec", -0.1),
    ("fleetscale", "grid.0.shard_imbalance", 0.9),
    ("fleetscale", "deterministic_across_grid", False),
    ("fleetscale", "deterministic_across_grid", 1),
    ("churn", "schema_version", 3),
    ("churn", "deterministic_across_layouts", False),
    ("churn", "scenarios.0.dispatched", 0),
    ("churn", "scenarios.1.availability", 1.5),
    ("churn", "scenarios.1.availability", -0.1),
    ("churn", "scenarios.1.audit_violations", 1),
    ("churn", "scenarios.2.name", "recovery"),
    ("churn", "scenarios.0.lost_to_crash", 1),
    ("churn", "scenarios.1.lost_to_crash", 0),
    ("churn", "scenarios.2.failovers", 0),
    ("churn", "scenarios.2.timeouts", 0),
    ("churn", "scenarios.2.availability", 0.9),
    ("trace", "traceEvents", []),
    ("trace", "traceEvents.1.pid", DELETE),
    ("trace", "traceEvents.1.ph", DELETE),
    ("trace", "traceEvents.1.ts", DELETE),
    ("trace", "traceEvents.1.ph", "B"),
    ("trace", "traceEvents.2.ph", "B"),
    ("trace", "traceEvents.3.ph", "B"),
    ("trace", "traceEvents.1.name", "reply"),
    ("trace", "traceEvents.2.name", "seg_wake"),
    ("trace", "traceEvents.3.name", "C6"),
    ("metrics", "0", "t,series,entity,value"),
    ("metrics", "1", DELETE),
    ("blame", "schema_version", 2),
    ("blame", "requests", 0),
    ("blame", "incomplete", 1),
    ("blame", "trace_drops", 1),
    ("blame", "violations", 1),
    ("blame", "segments", []),
    ("blame", "bands.4.band", "max"),
    ("blame", "bands.0.blame_us.serve", 1.0),
    ("blame", "samples", []),
    ("blame", "samples.0.e2e_ticks", 4),
    ("health", "schema_version", 2),
    ("health", "slo.latency_threshold_us", 0),
    ("health", "worst_window_p99_us", 0),
    ("health", "latency_samples_dropped", 1),
    ("health", "policies.1", DELETE),
    ("health", "policies.0.short_us", 0),
    ("health", "policies.0.long_us", 1000),
    ("health", "policies.0.threshold", 0),
    ("health", "policies.0.severity", "email"),
    ("health", "alerts", {}),
    ("health", "alerts.0.kind", "ack"),
    ("health", "alerts.0.sli", "cost"),
    ("health", "alerts.0.t_us", -1),
    ("health", "alerts.0.burn_long", -1),
    ("health", "audit.audits", 0),
    ("health", "audit.checks", 0),
    ("health", "audit.violations", 1),
    ("health", "audit.by_check.budget", DELETE),
]

# Mutations that must still pass: what the checks deliberately allow.
ACCEPTED = [
    ("simcore", "speedup_geomean", 1.0),  # below target: advisory only
    ("blame", "bands.1.e2e_mean_us", 7.0),  # empty bands are skipped
    ("health", "alerts", []),  # a quiet run fires no alert
]


def mutated(kind: str, path: str, value):
    doc = copy.deepcopy(_minimal()[kind])
    *parents, leaf = path.split(".")
    node = doc
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    key = int(leaf) if isinstance(node, list) else leaf
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    return doc


def run_self_test() -> int:
    failures = 0
    for kind in VALIDATORS:
        try:
            VALIDATORS[kind][1](_minimal()[kind])
        except Rejected as e:
            print(f"FAIL minimal {kind} artifact rejected: {e}")
            failures += 1
    for kind, path, value in ACCEPTED:
        try:
            VALIDATORS[kind][1](mutated(kind, path, value))
        except Rejected as e:
            print(f"FAIL {kind} {path}: allowed mutation rejected: {e}")
            failures += 1
    for kind, path, value in MUTATIONS:
        try:
            VALIDATORS[kind][1](mutated(kind, path, value))
        except Rejected:
            continue
        except Exception as e:  # noqa: BLE001 - a crash is not a check
            print(f"FAIL {kind} {path}: crashed instead of rejecting: "
                  f"{type(e).__name__}: {e}")
        else:
            print(f"FAIL {kind} {path}={value!r}: mutation accepted")
        failures += 1
    total = len(VALIDATORS) + len(ACCEPTED) + len(MUTATIONS)
    print(f"check_bench self-test: {total - failures}/{total} cases pass")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true",
                    help="prove every check rejects a broken artifact")
    ap.add_argument("--run", metavar="EXE",
                    help="run EXE first; it must write the artifacts")
    ap.add_argument("--demo", action="store_true",
                    help="EXE is the fleet demo: run it traced and "
                         "untraced and check all of its artifacts")
    ap.add_argument("artifacts", nargs="*", metavar="KIND FILE")
    args = ap.parse_args()

    if args.self_test:
        return run_self_test()
    if args.demo:
        if not args.run or args.artifacts:
            ap.error("--demo takes --run EXE and no artifacts")
        return 0 if run_demo(args.run) else 1
    pairs = list(zip(args.artifacts[::2], args.artifacts[1::2]))
    if not pairs or len(args.artifacts) % 2:
        ap.error("expected KIND FILE pairs")
    for kind, _ in pairs:
        if kind not in VALIDATORS:
            ap.error(f"unknown kind {kind!r}; one of {', '.join(VALIDATORS)}")
    paths = [(kind, Path(f)) for kind, f in pairs]
    if args.run and not run(args.run, [p for _, p in paths]):
        return 1
    ok = all([validate(kind, path) for kind, path in paths])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

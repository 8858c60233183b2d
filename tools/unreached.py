#!/usr/bin/env python3
"""List the libapc functions that no product binary reaches.

    python3 tools/unreached.py [--build-dir DIR]

Builds the library, the benches, the examples and the perfbench binary
at -O0 with -ffunction-sections (so every function sits in its own
section and nothing is inlined away), into DIR (default
build-unreached/). It then relinks each product binary with the whole
of libapc.a and `-Wl,--gc-sections,--print-gc-sections`: the linker
keeps what the binary's entry points reach and names every section it
drops. A libapc function that every product link drops is unreached.

Tests are not products: a function only a test calls is unreached,
and must either go or earn an entry in ALLOWED below, which names the
test that needs it. Inline functions and template instantiations are
not judged (see DROPPED); the probe sees out-of-line library code.

Exit status 1 if any unreached function is not allowed.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Unreached by every product, kept for a test that checks the model
# with it: qualified name -> the test that needs it.
ALLOWED = {
    "apc::analysis::eq1PowerWithPc1a":
        "test_analysis Eq1.PowerWithPc1aConsistent (the paper's Eq. 1)",
    "apc::obs::Tracer::digest":
        "test_golden (pins each golden run's trace digest)",
    "apc::power::EnergyMeter::totalEnergy":
        "test_power EnergyMeter.PlanesAreSeparate",
    "apc::power::EnergyMeter::totalPower":
        "test_power EnergyMeter.PlanesAreSeparate",
    "apc::stats::Histogram::toCsv":
        "test_stats Histogram.ToCsv* (reads the bins back)",
    "apc::uncore::PllFarm::totalPowerWatts":
        "test_uncore PllFarm.PowerOffAllDropsPower",
    "apc::workload::CdfTable::fromFile":
        "test_workload CdfTable.RejectsMalformedTables; loads the "
        "published tables",
}

FLAGS = "-O0 -ffunction-sections"
LINK_FLAGS = "-Wl,--gc-sections,--print-gc-sections"
# Out-of-line functions only: an inline function's section carries its
# COMDAT group ("[...]"), and one product's copy may come from another
# object, so dropping the libapc copy says nothing.
DROPPED = re.compile(
    r"removing unused section '\.text\.(_Z[^'\[]+)' in file '[^']*"
    r"libapc\.a\(")
# Entities of namespace apc (members, locals, function templates);
# std:: instantiations over apc types start with _ZNSt/_ZSt instead.
APC_SYMBOL = re.compile(r"_ZZ?NK?3apc")


def run(cmd: list[str], cwd: Path | None = None) -> str:
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        raise SystemExit("unreached: failed: " + " ".join(cmd))
    return p.stdout + p.stderr


def configure_and_build(src: Path, build: Path) -> None:
    # A build type with no flags of its own, so FLAGS alone apply.
    run(["cmake", "-S", str(src), "-B", str(build), "-G", "Unix Makefiles",
         "-DCMAKE_BUILD_TYPE=Probe", f"-DCMAKE_CXX_FLAGS={FLAGS}",
         f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}",
         "-DAPC_BUILD_TESTS=OFF"])
    run(["cmake", "--build", str(build), "-j", str(os.cpu_count() or 1)])


def dropped_by(link_txt: Path) -> set[str]:
    """Relink one product with all of libapc; the symbols it drops."""
    args = []
    for a in shlex.split(link_txt.read_text()):
        if a.endswith("libapc.a"):
            args += ["-Wl,--whole-archive", a, "-Wl,--no-whole-archive"]
        else:
            args.append(a)
    out = run(args, cwd=link_txt.parent.parent.parent)
    return {m.group(1) for m in DROPPED.finditer(out)
            if APC_SYMBOL.match(m.group(1))}


def qualified(demangled: str) -> str:
    """The name without its parameter list or return type."""
    depth = 0
    for i, c in enumerate(demangled):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            demangled = demangled[:i]
            break
    # Function templates demangle with their return type first.
    demangled = demangled[demangled.find("apc::"):]
    return re.sub(r"\[abi:\w+\]", "", demangled)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir", type=Path,
                    default=ROOT / "build-unreached")
    args = ap.parse_args()
    build = args.build_dir.resolve()

    configure_and_build(ROOT, build)
    configure_and_build(ROOT / "perfbench", build / "perfbench")
    # Every executable's link line; the library's own is its archive step.
    links = [p for p in sorted(build.glob("CMakeFiles/*/link.txt")) +
             sorted((build / "perfbench").glob("CMakeFiles/*/link.txt"))
             if p.parent.name != "apc.dir"]
    if not links:
        raise SystemExit("unreached: no product links found")

    unreached: set[str] | None = None
    for link in links:
        dropped = dropped_by(link)
        unreached = dropped if unreached is None else unreached & dropped
    assert unreached is not None

    mangled = sorted(unreached)
    names = run(["c++filt"] + mangled).splitlines() if mangled else []
    found = sorted({qualified(n) for n in names})
    bad = [n for n in found if n not in ALLOWED]
    for n in found:
        mark = "allowed" if n in ALLOWED else "UNREACHED"
        print(f"{mark:9}  {n}" + (f"  [{ALLOWED[n]}]" if n in ALLOWED
                                  else ""))
    for n in sorted(set(ALLOWED) - set(found)):
        print(f"note: allowlist entry {n} is reached now; remove it")
    print(f"{len(links)} product links, {len(found)} unreached "
          f"function(s), {len(bad)} not allowed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

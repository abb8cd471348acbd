#!/usr/bin/env python3
"""Self-test of the benchmark's layer tracer.

Run from the repository root:

    python3 bench/selftest.py

Checks, in order:

1. Installing the tracer leaves no binding of a traced function
   unwrapped anywhere in the package: module attributes (including the
   copies made by ``from .x import y``), class attributes and function
   defaults.  The cross-module copies the program is known to hold are
   named explicitly as well.
2. Uninstalling restores every original binding.
3. Two traced runs of each workload with one seed report identical
   counts (every per-layer metric that is not a time).

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

# (module, attribute, traced function): bindings outside the home module.
KNOWN_COPIES = [
    ("geometry", "solve_lp", "lp.solve_lp"),
    ("gqvi", "solve_lp", "lp.solve_lp"),
    ("cli", "global_base", "normal_op.global_base"),
    ("quasiopt", "global_base", "normal_op.global_base"),
    ("cli", "gqvi_solve", "gqvi.solve"),
    ("quasiopt", "gqvi_solve", "gqvi.solve"),
    ("quasiopt", "_grid_points", "gqvi._grid_points"),
    ("cli", "adjusted_normal_cone", "normal_op.adjusted_normal_cone"),
    ("cli", "load_instance", "serialization.load_instance"),
]


def check_bindings():
    import importlib

    import adjcone.cli  # noqa: F401  (loads every module of the package)
    from tracer import Tracer

    problems = []
    tracer = Tracer()
    tracer.install()
    try:
        problems += [f"unwrapped binding {m}" for m in tracer.unpatched_bindings()]
        for module, attr, name in KNOWN_COPIES:
            bound = getattr(importlib.import_module(f"adjcone.{module}"), attr)
            if getattr(bound, "__wrapped__", None) is not tracer.originals[name]:
                problems.append(f"adjcone.{module}.{attr} is not the traced {name}")
    finally:
        tracer.uninstall()
    for module, attr, name in KNOWN_COPIES:
        bound = getattr(importlib.import_module(f"adjcone.{module}"), attr)
        if bound is not tracer.originals[name]:
            problems.append(f"adjcone.{module}.{attr} not restored")
    return problems


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio")}


def check_counts(seed=3):
    from run import WORKLOADS

    problems = []
    for workload in sorted(WORKLOADS):
        first = traced_counts(workload, seed)
        second = traced_counts(workload, seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        if differ:
            problems.append(f"{workload}: counts differ between runs: {differ}")
        print(f"{workload}: {len(first)} counts, "
              f"{'identical' if not differ else 'DIFFERENT'}")
    return problems


def main():
    problems = check_bindings()
    print(f"bindings: {'ok' if not problems else 'FAILED'}")
    problems += check_counts()
    for problem in problems:
        print(f"FAIL {problem}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

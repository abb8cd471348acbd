"""Layer tracer: wraps public functions of adjcone from outside.

Each target is a ``(module, qualname)`` pair in the package.  Installing
the tracer replaces the original function object everywhere the package
holds it: the class attribute for methods, and every module attribute
(``from .lp import solve_lp`` copies included) for functions.  Each
wrapper records a call count, the number of calls that raised, and self
time, which is the wrapper's wall time minus the time covered by nested
traced calls.  A few wrappers also observe arguments and results to
count work (LP rows, solver iterations, probe holes).

Nothing in the program is modified on disk, and ``uninstall`` restores
every binding.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "adjcone"

TARGETS = {
    "lp": ["solve_lp"],
    "geometry": [
        "Polytope.__init__", "Polytope.project", "Polytope.project_many",
        "Polytope.vertices", "Polytope.reduced", "Polytope.chebyshev_center",
        "Polytope.proper_faces", "GeneratedCone.section",
        "GeneratedCone.minimal", "polar_extreme_rays", "normal_cone_at",
        "weighted_minkowski", "polytope_distance",
    ],
    "quasiconvex": [
        "StepLevelFunction.rho", "StepLevelFunction.adjusted_contains",
        "quasiconvexity_check", "adjusted_convexity_check",
    ],
    "normal_op": [
        "strict_normal_cone", "adjusted_normal_cone", "polar_of_samples",
        "build_chart", "LocalChart.bump", "Atlas.weights", "build_atlas",
        "global_base", "usc_probe", "closedness_probe",
        "quasimonotonicity_probe",
    ],
    "gqvi": [
        "MovingPolytope.value", "minimax_value", "solve", "_grid_points",
        "lsc_probe", "hypothesis_report",
    ],
    "quasiopt": ["TFromNormal.value", "solve_quasiopt"],
    "serialization": ["load_instance"],
    "cli": ["run"],
}


def target_names():
    return [f"{layer}.{qual}" for layer, quals in TARGETS.items()
            for qual in quals]


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def _resolve(layer, qualname):
    """``(owner, attribute, original)`` for a target; owner is a module or
    a class, and the original is the raw function in its namespace."""
    owner = importlib.import_module(f"{PACKAGE}.{layer}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


# -- observers: work counts read from arguments and results ------------------


def _observe_lp(tracer, args, kwargs, result):
    rows = 0
    for key, pos in (("a_ub", 1), ("a_eq", 3)):
        mat = kwargs.get(key, args[pos] if len(args) > pos else None)
        if mat is not None:
            rows += len(mat)
    tracer.work["lp.solve_lp.rows"] += rows
    if not result.optimal:
        tracer.work["lp.solve_lp.not_optimal"] += 1
    if tracer.active["gqvi.minimax_value"]:
        tracer.work["gqvi.minimax_value.lp_calls"] += 1


def _observe_solve(tracer, args, kwargs, result):
    tracer.work["gqvi.solve.iterations"] += result.iterations


def _observe_usc(tracer, args, kwargs, result):
    per_radius = kwargs.get("samples_per_radius", 20)
    tracer.work["normal_op.usc_probe.samples"] += per_radius * len(result.radii)
    tracer.work["normal_op.usc_probe.holes"] += result.holes


OBSERVERS = {
    "lp.solve_lp": _observe_lp,
    "gqvi.solve": _observe_solve,
    "normal_op.usc_probe": _observe_usc,
}


class Tracer:
    """Counts and self time per traced function; one instance per run."""

    def __init__(self):
        self.calls = Counter()
        self.raised = Counter()
        self.self_s = defaultdict(float)
        self.work = Counter()
        self.active = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.originals = {}

    def reset(self):
        self.calls.clear()
        self.raised.clear()
        self.self_s.clear()
        self.work.clear()

    def _wrap(self, name, fn):
        stack = self._stack
        calls, raised, self_s, active = (self.calls, self.raised,
                                         self.self_s, self.active)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                elapsed = clock() - start
                active[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[name] += elapsed - child[0]
                calls[name] += 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, quals in TARGETS.items():
            for qual in quals:
                name = f"{layer}.{qual}"
                owner, attr, original = _resolve(layer, qual)
                self.originals[name] = original
                wrapper = self._wrap(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                # Every module of the package that binds the function.
                for module in package_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def unpatched_bindings(self):
        """Places in the package that still hold an original target.

        Scans module attributes, class attributes, and function defaults;
        an empty list means every binding is traced.
        """
        originals = {id(fn): name for name, fn in self.originals.items()}
        missed = []

        def check(where, value):
            if id(value) in originals:
                missed.append(f"{where} -> {originals[id(value)]}")

        for module in package_modules():
            for key, value in vars(module).items():
                check(f"{module.__name__}.{key}", value)
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for ckey, cvalue in vars(value).items():
                        check(f"{module.__name__}.{key}.{ckey}", cvalue)
                for default in (getattr(value, "__defaults__", None) or ()):
                    check(f"{module.__name__}.{key} default", default)
                for default in (getattr(value, "__kwdefaults__", None) or {}).values():
                    check(f"{module.__name__}.{key} kwdefault", default)
        return missed

    def snapshot(self):
        """Counts, self times and work of everything since ``reset``."""
        return {
            "calls": {n: self.calls[n] for n in target_names()},
            "raised": {n: self.raised[n] for n in target_names()},
            "self_s": {n: self.self_s[n] for n in target_names()},
            "work": dict(self.work),
        }

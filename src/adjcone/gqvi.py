"""Generalized quasivariational inequalities over moving polyhedra.

An instance couples an affinely moving constraint polytope
``K(x) = {y : A y <= b + D x} ∩ box`` with a polytope-valued operator
``T``.  A point solves the inequality when it is feasible for its own
constraint set and the minimax residual

    min over y in K(x) of  max over vertices v of T(x) of  <v, y - x>

is nonnegative.  The residual is one LP; the reversed max-min is one LP
per vertex and must coincide on polytope data, which ``sion_check``
verifies.  The solver is a heuristic (damped fixed-point iteration with
multistart and a grid fallback): the underlying theory is existence
only, so every reported solution is re-verified from scratch and
anything weaker is labelled ``residual_floor``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DEFAULT_TOLERANCES,
    EmptyPolytopeError,
    GeometryError,
    Polytope,
    in_class_D,
)
from .lp import solve_lp

__all__ = [
    "InstanceError",
    "MovingPolytope",
    "ConstantOperator",
    "TabulatedOperator",
    "SolverConfig",
    "GqviInstance",
    "MinimaxResult",
    "SionResult",
    "SolveReport",
    "fixed_point_set",
    "minimax_value",
    "sion_check",
    "solve",
    "lsc_probe",
    "hypothesis_report",
]


class InstanceError(RuntimeError):
    """The instance violates a structural requirement (e.g. empty fix K)."""


class MovingPolytope:
    """Affinely moving constraint map ``K(x) = {y : A y <= b + D x} ∩ box``."""

    def __init__(self, a, b, d, box: Polytope, *, tolerances=None):
        tol = tolerances or DEFAULT_TOLERANCES
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.b = np.asarray(b, dtype=float).ravel()
        self.d = np.atleast_2d(np.asarray(d, dtype=float))
        if self.a.shape != self.d.shape or self.a.shape[0] != self.b.size:
            raise ValueError("A, b, D shapes disagree")
        if self.a.shape[1] != box.dim:
            raise ValueError("constraint matrix does not match the box dimension")
        self.box = box
        self.dim = box.dim
        self.tolerances = tol

    def value(self, x) -> Polytope:
        """K(x); raises EmptyPolytopeError when infeasible at x."""
        return self._slice(x, check_feasible=True)

    def _slice(self, x, check_feasible):
        # Without the feasibility LP, only the closed-form checks (zero
        # rows, crossing box bounds) can raise; the caller must settle
        # emptiness itself.
        x = np.asarray(x, dtype=float).ravel()
        box_a, box_b = self.box.halfspaces
        return Polytope(np.vstack([self.a, box_a]),
                        np.concatenate([self.b + self.d @ x, box_b]),
                        tolerances=self.tolerances, check_bounded=False,
                        check_feasible=check_feasible)

    def contains(self, x, y, tol=None):
        slack = tol if tol is not None else self.tolerances.feas
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        return (bool(np.all(self.a @ y <= self.b + self.d @ x + slack))
                and self.box.contains(y, slack))

    def validate(self, samples=64, seed=0):
        """Nonemptiness scan over the box; returns the failure points."""
        rng = np.random.default_rng(seed)
        points = np.vstack([self.box.sample(rng, samples), self.box.vertices()])
        failures = []
        for x in points:
            try:
                self.value(x)
            except EmptyPolytopeError:
                failures.append(x)
        return failures


class ConstantOperator:
    """T(x) identically equal to one polytope."""

    def __init__(self, polytope: Polytope):
        self.polytope = polytope
        self.dim = polytope.dim

    def value(self, x) -> Polytope:
        return self.polytope


class TabulatedOperator:
    """Piecewise-constant operator along one coordinate.

    ``breakpoints`` has one entry fewer than ``polytopes``; cell i is
    ``x[axis] <= breakpoints[i]`` going left to right.  Deliberately able
    to encode a jump, which the semicontinuity probes must detect.
    """

    def __init__(self, axis, breakpoints, polytopes):
        if len(polytopes) != len(breakpoints) + 1:
            raise ValueError("need one more polytope than breakpoints")
        self.axis = int(axis)
        self.breakpoints = [float(t) for t in breakpoints]
        self.polytopes = list(polytopes)
        self.dim = polytopes[0].dim

    def value(self, x) -> Polytope:
        coord = float(np.asarray(x, dtype=float).ravel()[self.axis])
        for t, poly in zip(self.breakpoints, self.polytopes):
            if coord <= t:
                return poly
        return self.polytopes[-1]


@dataclass(frozen=True)
class SolverConfig:
    starts: int = 8
    gamma: float = 0.5
    max_iters: int = 200
    mesh_divisions: int = 32
    seed: int = 42
    tol_solve: float = 1e-6


@dataclass
class GqviInstance:
    constraint_map: MovingPolytope
    operator: object
    config: SolverConfig = field(default_factory=SolverConfig)
    tolerances: object = field(default_factory=lambda: DEFAULT_TOLERANCES)


@dataclass
class MinimaxResult:
    value: float
    y_opt: np.ndarray
    witness: np.ndarray  # maximizing vertex of T(x) at y_opt


@dataclass
class SionResult:
    """Both orderings of the minimax residual.

    ``maxmin`` restricts the outer maximum to the vertices of the
    operator value, which is exact whenever the inner minimum is linear
    over it (operators inside one orthant against box-like constraint
    sets, which covers the shipped instances).  ``maxmin_full`` maximizes
    over the whole operator polytope with one LP and coincides with
    ``minmax`` on every polytope instance by the minimax theorem.
    """

    minmax: float
    maxmin: float
    maxmin_full: float

    @property
    def gap(self) -> float:
        return abs(self.minmax - self.maxmin)

    @property
    def gap_full(self) -> float:
        return abs(self.minmax - self.maxmin_full)


def fixed_point_set(constraint_map: MovingPolytope) -> Polytope:
    """``{x : (A - D) x <= b} ∩ box``, exact and closed by construction."""
    box_a, box_b = constraint_map.box.halfspaces
    try:
        return Polytope(np.vstack([constraint_map.a - constraint_map.d, box_a]),
                        np.concatenate([constraint_map.b, box_b]),
                        tolerances=constraint_map.tolerances,
                        check_bounded=False)
    except EmptyPolytopeError as exc:
        raise InstanceError("the constraint map has no fixed points") from exc


def minimax_value(operator, constraint_map, x) -> MinimaxResult:
    """One-LP evaluation of ``min_{y in K(x)} max_j <v_j, y - x>``.

    x solves the inequality iff it lies in K(x) and the value is
    nonnegative.  Raises EmptyPolytopeError when K(x) is empty.
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    # K(x) skips its own feasibility LP: t is free, so the minimax LP is
    # feasible exactly when K(x) is, and its phase 1 decides emptiness.
    feasible = constraint_map._slice(x, check_feasible=False)
    vertices = operator.value(x).vertices()
    k_a, k_b = feasible.halfspaces
    # variables (y, t): minimize t subject to v_j.y - t <= v_j.x, y in K(x)
    top = np.hstack([vertices, -np.ones((len(vertices), 1))])
    bottom = np.hstack([k_a, np.zeros((k_a.shape[0], 1))])
    a_ub = np.vstack([top, bottom])
    b_ub = np.concatenate([vertices @ x, k_b])
    c = np.zeros(n + 1)
    c[n] = 1.0
    sol = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
    if sol.status == "infeasible":
        raise EmptyPolytopeError("constraint set K(x) is empty")
    if not sol.optimal:
        raise InstanceError(f"minimax LP ended with status {sol.status}")
    y_opt = sol.x[:n]
    products = vertices @ (y_opt - x)
    witness = vertices[int(np.argmax(products))]
    return MinimaxResult(value=float(sol.value), y_opt=y_opt, witness=witness)


def sion_check(operator, constraint_map, x) -> SionResult:
    """Exchange min and max; the gap must vanish on polytope data."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    minmax = minimax_value(operator, constraint_map, x).value
    feasible = constraint_map.value(x)
    k_a, k_b = feasible.halfspaces
    value_poly = operator.value(x)
    best = -math.inf
    for v in value_poly.vertices():
        sol = solve_lp(v, a_ub=k_a, b_ub=k_b)
        if not sol.optimal:
            raise InstanceError(f"inner LP ended with status {sol.status}")
        best = max(best, float(sol.value - v @ x))
    # Exact outer maximum over the whole operator polytope: the inner min
    # is attained at a constraint-set vertex, so one LP in (v, s) suffices.
    k_verts = feasible.vertices()
    t_a, t_b = value_poly.halfspaces
    rows = np.hstack([-(k_verts - x), np.ones((len(k_verts), 1))])
    rows = np.vstack([rows, np.hstack([t_a, np.zeros((t_a.shape[0], 1))])])
    rhs = np.concatenate([np.zeros(len(k_verts)), t_b])
    c = np.zeros(n + 1)
    c[n] = -1.0
    sol = solve_lp(c, a_ub=rows, b_ub=rhs)
    if not sol.optimal:
        raise InstanceError(f"full maxmin LP ended with status {sol.status}")
    return SionResult(minmax=minmax, maxmin=best, maxmin_full=float(-sol.value))


@dataclass
class SolveReport:
    status: str  # "solved" | "residual_floor" | "infeasible"
    x: np.ndarray | None
    residual: float | None
    witness: np.ndarray | None
    iterations: int
    wall_time: float
    starts_tried: int = 0
    trace: list | None = None

    def to_dict(self, include_timing=False):
        out = {
            "status": self.status,
            "x": None if self.x is None else np.asarray(self.x).tolist(),
            "residual": self.residual,
            "witness": None if self.witness is None else np.asarray(self.witness).tolist(),
            "iterations": self.iterations,
            "starts_tried": self.starts_tried,
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out


def _candidate_key(x, residual):
    return (-residual, float(np.linalg.norm(x)), tuple(np.round(x, 12)))


def solve(instance: GqviInstance, collect_trace=False) -> SolveReport:
    """Multistart damped fixed-point iteration with a grid fallback.

    From each start, ``x <- (1 - gamma) x + gamma y*(x)`` until the point
    is stationary or accepted (feasible for its own constraint set with
    residual above ``-tol_solve``).  Operator evaluation errors abandon
    the branch; if no branch qualifies, the residual is maximized over a
    grid of the fixed-point set and reported as ``residual_floor``.
    Candidate ties break toward smaller norm, then lexicographically.
    """
    t_start = time.perf_counter()
    cfg = instance.config
    cm = instance.constraint_map
    tol = instance.tolerances
    fix = fixed_point_set(cm)
    rng = np.random.default_rng(cfg.seed)
    starts = [fix.chebyshev_center()[0]]
    starts.extend(fix.vertices())
    starts.extend(fix.sample(rng, cfg.starts))

    iterations = 0
    candidates = []
    trace = [] if collect_trace else None
    for start_idx, x in enumerate(starts):
        x = np.asarray(x, dtype=float).copy()
        try:
            for _ in range(cfg.max_iters):
                result = minimax_value(instance.operator, cm, x)
                iterations += 1
                if collect_trace:
                    trace.append((start_idx, x.copy(), result.value))
                if cm.contains(x, x) and result.value >= -cfg.tol_solve:
                    candidates.append((x.copy(), result))
                    break
                x_next = (1.0 - cfg.gamma) * x + cfg.gamma * result.y_opt
                if np.linalg.norm(x_next - x) <= 1e-12:
                    break
                x = x_next
        except (GeometryError, InstanceError, ValueError):
            continue  # branch hit an operator hole or infeasible slice

    if not candidates:
        mesh = max(fix.diameter() / cfg.mesh_divisions, 1e-9)
        best = None
        for g in _grid_points(fix, mesh):
            try:
                result = minimax_value(instance.operator, cm, g)
            except (GeometryError, InstanceError, ValueError):
                continue
            iterations += 1
            if best is None or _candidate_key(g, result.value) < _candidate_key(*best_key):
                best = (g, result)
                best_key = (g, result.value)
        if best is None:
            return SolveReport("infeasible", None, None, None, iterations,
                               time.perf_counter() - t_start, len(starts), trace)
        x_best, res_best = best
        status = "solved" if (res_best.value >= -cfg.tol_solve
                              and cm.contains(x_best, x_best)) else "residual_floor"
        return SolveReport(status, x_best, float(res_best.value), res_best.witness,
                           iterations, time.perf_counter() - t_start, len(starts), trace)

    scored = sorted(((c, r) for c, r in candidates),
                    key=lambda cr: _candidate_key(cr[0], cr[1].value))
    x_best, _ = scored[0]
    # Solver soundness: re-verify the winner from scratch.
    recheck = minimax_value(instance.operator, cm, x_best)
    ok = cm.contains(x_best, x_best) and recheck.value >= -cfg.tol_solve
    status = "solved" if ok else "residual_floor"
    return SolveReport(status, x_best, float(recheck.value), recheck.witness,
                       iterations, time.perf_counter() - t_start, len(starts), trace)


def _grid_points(polytope: Polytope, mesh: float):
    lo, hi = polytope.bounding_box()
    axes = []
    for k in range(polytope.dim):
        count = max(2, int(math.floor((hi[k] - lo[k]) / mesh + 1e-9)) + 1)
        axes.append(np.linspace(lo[k], hi[k], count))
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, polytope.dim)
    return pts[polytope.contains_many(pts)]


def lsc_probe(value_fn, box: Polytope, centers=12, radii=(1e-1, 1e-2, 1e-3),
              seed=0, tol_lsc=1e-2):
    """Inner-continuity probe for a polytope-valued map.

    For probe centers x and shrinking radii r, measures the worst
    ``dist(y, K(x'))`` over vertices y of K(x) and perturbed points x'.
    Affinely moving maps shrink linearly with r; a jump stalls the curve
    and fails the verdict.
    """
    rng = np.random.default_rng(seed)
    radii = tuple(sorted(radii, reverse=True))
    mesh = max(box.diameter() / 8.0, 1e-9)
    points = np.vstack([box.sample(rng, centers), box.vertices(),
                        _grid_points(box, mesh)])
    curves = []
    worst_terminal = 0.0
    for x in points:
        try:
            vertices = value_fn(x).vertices()
        except EmptyPolytopeError:
            continue
        samples = []
        for r in radii:
            for _ in range(6):
                direction = rng.normal(size=box.dim)
                direction /= np.linalg.norm(direction)
                x_p = x + r * direction * rng.uniform() ** (1.0 / box.dim)
                if not box.contains(x_p):
                    continue
                try:
                    moved = value_fn(x_p)
                except EmptyPolytopeError:
                    continue
                _, dist = moved.project_many(vertices)
                samples.append((float(np.linalg.norm(x_p - x)), float(dist.max())))
        curve = []
        for r in radii:
            within = [d for s, d in samples if s <= r + 1e-15]
            curve.append(max(within) if within else 0.0)
        curves.append(curve)
        worst_terminal = max(worst_terminal, curve[-1])
    passed = worst_terminal <= tol_lsc
    return {"radii": list(radii), "worst_terminal": worst_terminal,
            "passed": passed, "curves": curves}


def hypothesis_report(instance: GqviInstance, samples=48, seed=0):
    """Informational record of the existence-theorem hypotheses.

    Compactness is structural (every K(x) carries the box constraints),
    values are closed convex polytopes hence in the convexity class the
    theory needs, the fixed-point set is polyhedral hence closed, and
    lower semicontinuity is probed, not proven.  Failures flag instances
    where the existence result does not apply.
    """
    cm = instance.constraint_map
    failures = cm.validate(samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    sample_pts = cm.box.sample(rng, 8)
    class_d = all(in_class_D(cm.value(x)) for x in sample_pts
                  if _nonempty(cm, x))
    try:
        fix = fixed_point_set(cm)
        fix_nonempty = True
    except InstanceError:
        fix_nonempty = False
    lsc = lsc_probe(cm.value, cm.box, seed=seed)
    report = {
        "bounded": True,
        "nonempty_scan": {"checked": samples, "failures": len(failures)},
        "values_in_class_D": class_d,
        "fix_k_closed": True,
        "fix_k_nonempty": fix_nonempty,
        "lsc_probe": {"passed": lsc["passed"],
                      "worst_terminal": lsc["worst_terminal"],
                      "radii": lsc["radii"]},
    }
    report["all_passed"] = (not failures) and class_d and fix_nonempty and lsc["passed"]
    return report


def _nonempty(cm, x):
    try:
        cm.value(x)
        return True
    except EmptyPolytopeError:
        return False

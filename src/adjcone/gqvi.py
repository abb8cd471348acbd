"""Generalized quasivariational inequalities over moving polyhedra.

An instance couples an affinely moving constraint polytope
``K(x) = {y : A y <= b + D x} ∩ box`` with a polytope-valued operator
``T``.  A point solves the inequality when it is feasible for its own
constraint set and the minimax residual

    min over y in K(x) of  max over vertices v of T(x) of  <v, y - x>

is nonnegative.  At a feasible x, ``y = x`` gives 0, so the residual
there is at most 0: a solution's residual is 0 up to the LP's rounding.
The residual is one LP.  The
solver is a heuristic (damped fixed-point iteration with multistart and
a grid fallback): the underlying theory is existence only, so every
reported solution is re-verified from scratch and anything weaker is
labelled ``residual_floor``.

Given T(x), only the right-hand side of the minimax LP depends on x.  So
within one ``solve``, an LP of the same vertex array of T(x) as the LP
before it starts from that LP's optimal basis, by the dual simplex of
``lp.warm_solve`` (Bixby, *Oper. Res.* 50(1), 2002); where that declines,
and for every other LP, ``solve_lp``'s body cache replays a pivot path an
earlier LP of the same body took, on the right-hand side alone (see
``lp``).  K holds the LP's rows, and their ``LPBody`` once a warm answer
needs it, for the last vertex array of T(x) it met, a read-only array
matched by identity, so a constant T builds them once per solve.

On one final basis the LP's solution is affine in x, as the optimum of a
right-hand-side parametric LP is on each of its critical regions (Gal &
Nedoma, *Management Sci.* 18(7), 1972).  So when two damped steps in a
row end on one basis with one vertex array of T(x), the solver jumps to
the limit of the damped steps on that piece, as Newton's method does on
the pieces of a piecewise-affine equation (Kojima & Shindo, *J. Oper.
Res. Soc. Japan* 29, 1986), and keeps the jump only where the acceptance
test passes.  The cache counts of the minimax LPs, the warm answers and
the declines by reason, the jumps tried and kept, and the branches
abandoned by error type go to ``SolveReport.stats``.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    FEAS,
    EmptyPolytopeError,
    GeometryError,
    Polytope,
    _axis_box,
    _axis_layout,
    _unit_halfspaces,
    _unit_offsets,
)
from . import lp
from .lp import solve_lp

# The benchmark's layer tracer looks this helper up as ``gqvi._grid_points``
# (ROADMAP item 5 renames that target at the next benchmark change).
from .geometry import grid_points as _grid_points

__all__ = [
    "InstanceError",
    "MovingPolytope",
    "ConstantOperator",
    "TabulatedOperator",
    "SolverConfig",
    "GqviInstance",
    "MinimaxResult",
    "SolveReport",
    "fixed_point_set",
    "minimax_value",
    "solve",
    "lsc_probe",
    "hypothesis_report",
]


# Random box points of the nonemptiness scan (``MovingPolytope.validate``).
_SCAN_SAMPLES = 48


class InstanceError(RuntimeError):
    """The instance violates a structural requirement (e.g. empty fix K)."""


class MovingPolytope:
    """Affinely moving constraint map ``K(x) = {y : A y <= b + D x} ∩ box``.

    The rows of K(x) are normalised and their axis layout found once per
    map; per point run only the offsets, their closed-form checks and,
    for a non-box K(x) in ``value``, the feasibility LP.
    """

    def __init__(self, a, b, d, box: Polytope):
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.b = np.asarray(b, dtype=float).ravel()
        self.d = np.atleast_2d(np.asarray(d, dtype=float))
        for name in ("a", "b", "d"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"MovingPolytope: {name} has a non-finite entry")
        if self.a.shape != self.d.shape or self.a.shape[0] != self.b.size:
            raise ValueError("A, b, D shapes disagree")
        if self.a.shape[1] != box.dim:
            raise ValueError("constraint matrix does not match the box dimension")
        self.box = box
        self.dim = box.dim
        self._rows = None  # see _unit_rows
        self._slopes = None  # see _offset_slopes
        # [vertices of T(x), their _minimax_rows, its LPBody once needed]
        self._minimax = None

    def value(self, x) -> Polytope:
        """K(x); raises EmptyPolytopeError when infeasible at x.  The bits,
        errors and feasibility LP of ``Polytope`` on the stacked rows, from
        the map's unit rows and the offsets at x."""
        x = np.asarray(x, dtype=float).ravel()
        unit, _, _, _, exact = self._unit_rows()
        b, box = self._offsets_at(x)
        return Polytope._from_unit(unit, b, box, exact)

    def _halfspaces_at(self, x):
        """The unit-normal rows of K(x), bit for bit those of ``value(x)``,
        without its feasibility LP: the caller must settle emptiness."""
        return self._unit_rows()[0], self._offsets_at(x)[0]

    def _unit_rows(self):
        """``(unit rows, row norms, axis layout, no zero row, exact axes)``
        of K(x), computed once per map as ``Polytope`` would."""
        if self._rows is None:
            rows = np.vstack([self.a, self.box.halfspaces[0]])
            norms = np.linalg.norm(rows, axis=1)
            unit, _ = _unit_halfspaces(rows, np.zeros(len(rows)), norms)
            layout, exact = _axis_layout(unit.tolist())
            self._rows = unit, norms, layout, len(unit) == len(rows), exact
        return self._rows

    def _offset_slopes(self):
        """The derivative in x of the offsets of the unit rows of K(x):
        each row of D over its row norm, and zero on the box rows."""
        if self._slopes is None:
            norms = self._unit_rows()[1]
            d = np.zeros((norms.size, self.dim))
            d[:len(self.d)] = self.d
            self._slopes = _unit_halfspaces(d, np.zeros(norms.size), norms)[0]
        return self._slopes

    def _offsets_at(self, x):
        """``(offsets, _axis_box lists or None)`` of the unit rows of K(x)
        at the flat float x.  Only the closed-form checks raise: non-finite
        offsets, a zero row with a negative offset, crossing box bounds."""
        _, norms, layout, whole, _ = self._unit_rows()
        b = np.concatenate([self.b + self.d @ x, self.box.halfspaces[1]])
        if not np.isfinite(b).all():
            raise ValueError("Polytope: b has a non-finite entry")
        b = b / norms if whole else _unit_offsets(b, norms)
        return b, (None if layout is None
                   else _axis_box(layout, b.tolist(), self.dim))

    def contains(self, x, y, tol=None):
        slack = tol if tol is not None else FEAS
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        return (bool(np.all(self.a @ y <= self.b + self.d @ x + slack))
                and self.box.contains(y, slack))

    def validate(self, seed=0):
        """Nonemptiness scan over ``_SCAN_SAMPLES`` random box points and
        the box vertices; returns the failure points."""
        rng = np.random.default_rng(seed)
        points = np.vstack([self.box.sample(rng, _SCAN_SAMPLES),
                            self.box.vertices()])
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
    to encode a jump, which the semicontinuity probes must detect.  A bad
    argument raises ``ValueError`` whose message starts with its name.
    """

    def __init__(self, axis, breakpoints, polytopes):
        if len(polytopes) != len(breakpoints) + 1:
            raise ValueError("polytopes must number one more than breakpoints")
        dims = [p.dim for p in polytopes]
        if len(set(dims)) != 1:
            raise ValueError(f"polytopes must share a dimension, got {dims}")
        self.dim = dims[0]
        if (isinstance(axis, bool) or not isinstance(axis, numbers.Integral)
                or not 0 <= axis < self.dim):
            raise ValueError(f"axis must be an integer in [0, {self.dim}), "
                             f"got {axis!r}")
        if any(isinstance(t, bool) or not isinstance(t, numbers.Real)
               for t in breakpoints):
            raise ValueError(f"breakpoints must be numbers, got {breakpoints!r}")
        self.axis = int(axis)
        self.breakpoints = [float(t) for t in breakpoints]
        if not all(s < t for s, t in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must strictly increase, "
                             f"got {self.breakpoints!r}")
        self.polytopes = list(polytopes)

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
    """K and T of a GQVI; a T that declares ``dim`` must share K's."""

    constraint_map: MovingPolytope
    operator: object
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        dim = getattr(self.operator, "dim", None)
        if dim is not None and dim != self.constraint_map.dim:
            raise InstanceError(f"T has dimension {dim}, expected "
                                f"{self.constraint_map.dim} (the dimension of K)")


@dataclass
class MinimaxResult:
    value: float
    y_opt: np.ndarray
    witness: np.ndarray | None = None  # maximizing vertex of T(x) at y_opt


def fixed_point_set(constraint_map: MovingPolytope) -> Polytope:
    """``{x : (A - D) x <= b} ∩ box``, exact and closed by construction."""
    box_a, box_b = constraint_map.box.halfspaces
    try:
        return Polytope(np.vstack([constraint_map.a - constraint_map.d, box_a]),
                        np.concatenate([constraint_map.b, box_b]),
                        check_bounded=False)
    except EmptyPolytopeError as exc:
        raise InstanceError("the constraint map has no fixed points") from exc


def _minimax_rows(vertices, k_a):
    """``(c, a_ub)`` of the minimax LP over the vertices of T(x) and the
    unit rows of K(x): in the variables (y, t), minimize t subject to
    ``v_j.y - t <= v_j.x`` and y in K(x).  Only the right-hand side,
    ``concatenate([vertices @ x, offsets of K(x)])``, depends on x."""
    n = k_a.shape[1]
    a_ub = np.zeros((len(vertices) + len(k_a), n + 1))
    a_ub[:len(vertices), :n] = vertices
    a_ub[:len(vertices), n] = -1.0
    a_ub[len(vertices):, :n] = k_a
    c = np.zeros(n + 1)
    c[n] = 1.0
    return c, a_ub


def _minimax_result(sol, x) -> MinimaxResult:
    """The result of the minimax LP at x, without its witness."""
    if sol.status == "infeasible":
        raise EmptyPolytopeError("constraint set K(x) is empty")
    if not sol.optimal:
        raise InstanceError(f"minimax LP ended with status {sol.status}")
    return MinimaxResult(value=float(sol.value), y_opt=sol.x[:x.size])


def _witness(vertices, y_opt, x):
    """The vertex of T(x) that attains the maximum at y_opt."""
    return vertices[int(np.argmax(vertices @ (y_opt - x)))]


def _minimax(operator, constraint_map, x, counts, warm=None):
    """``minimax_value`` at the flat float point x without the witness,
    the vertex array of T(x), the LP's ``a_ub`` rows, and its final basis
    as a set.
    ``counts`` counts the minimax LP under ``minimax_lps``, and under
    ``warm`` or its share of the LP cache counts, by their names; the
    operator's own LPs, which run first, are not counted.  ``warm``, when
    given, is ``[vertex array, basis]`` of the last optimal minimax LP:
    an LP of that vertex array is answered by ``lp.warm_solve`` from that
    basis, and by ``solve_lp`` where it declines (counted by reason under
    ``warm_declined``); the LP's own pair then replaces it."""
    # K(x) skips its own feasibility LP: t is free, so the minimax LP is
    # feasible exactly when K(x) is, and its phase 1 decides emptiness.
    k_a, k_b = constraint_map._halfspaces_at(x)
    vertices = operator.value(x).vertices()
    held = constraint_map._minimax
    if held is None or held[0] is not vertices:  # a read-only array
        held = constraint_map._minimax = [vertices,
                                          _minimax_rows(vertices, k_a), None]
    c, a_ub = held[1]
    b_ub = np.concatenate([vertices @ x, k_b])
    sol = None
    if warm is not None and warm[0] is vertices:
        if held[2] is None:
            held[2] = lp.prepare_body(c, a_ub)
        sol = lp.warm_solve(held[2], warm[1], b_ub)
        if isinstance(sol, str):
            counts["warm_declined"][sol] += 1
            sol = None
        else:
            counts["warm"] += 1
    if sol is None:
        lp_counts = lp._counts  # a call that returns is replayed or solved
        solved, nodes = lp_counts["solved"], lp_counts["nodes"]
        sol = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
        solved = lp_counts["solved"] - solved
        counts["replayed"] += 1 - solved
        counts["solved"] += solved
        counts["nodes"] += lp_counts["nodes"] - nodes
    counts["minimax_lps"] += 1
    result = _minimax_result(sol, x)
    if warm is not None:
        warm[:] = vertices, sol.basis
    return result, vertices, a_ub, frozenset(sol.basis)


def _affine_jump(constraint_map, vertices, a_ub, basis, x, y_opt):
    """The limit of the damped steps from x while the minimax LP, of
    rows ``a_ub`` for ``vertices``, keeps the final basis ``basis``, or
    None where that is not finite.

    The LP's variables y and t are free, so their columns come first,
    two each, and the rows whose slacks are nonbasic are tight.  With
    n + 1 of them, the optimum on the piece is ``y*(x) = M x + q``: M is
    the y part of their rows solved against the slopes of their
    right-hand sides ``[V x; offsets of K(x)]``.  A damped step scales
    ``y*(x) - x`` by ``1 - gamma (1 - lambda)`` along an eigenvector of
    M, so the steps add up to ``S diag(g) S^-1 (y*(x) - x)``, with
    ``M = S diag(lambda) S^-1`` and ``g = 1 / (1 - lambda)``.  g is 0
    where ``|1 - lambda| <= 1e-9``: along those directions a step adds
    the same amount every time, with no limit on the piece, so the jump
    leaves them as they are.
    """
    n = x.size
    tight = [i for i in range(len(a_ub)) if 2 * (n + 1) + i not in basis]
    if len(tight) != n + 1:
        return None
    slopes = np.vstack([vertices, constraint_map._offset_slopes()])
    try:
        m = np.linalg.solve(a_ub[tight], slopes[tight])[:n]
        lam, s = np.linalg.eig(m)
        moves = np.abs(1.0 - lam) > 1e-9
        gain = np.where(moves, 1.0 / np.where(moves, 1.0 - lam, 1.0), 0.0)
        step = s @ (gain * np.linalg.solve(s, y_opt - x))
    # Raised on an exactly singular system.  A defective M does not
    # raise: S is then ill-conditioned, and its jump is left to the
    # acceptance test.
    except np.linalg.LinAlgError:
        return None
    jump = x + step.real
    return jump if np.isfinite(jump).all() else None


def minimax_value(operator, constraint_map, x) -> MinimaxResult:
    """One-LP evaluation of ``min_{y in K(x)} max_j <v_j, y - x>``.

    x solves the inequality iff it lies in K(x) and the value is
    nonnegative.  Raises EmptyPolytopeError when K(x) is empty.
    """
    x = np.asarray(x, dtype=float).ravel()
    result, vertices = _minimax(operator, constraint_map, x, Counter())[:2]
    result.witness = _witness(vertices, result.y_opt, x)
    return result


# A branch of the solver hit an operator hole or an empty slice.
_ABANDON = (GeometryError, InstanceError, ValueError)


@dataclass
class SolveReport:
    status: str  # "solved" | "residual_floor" | "infeasible"
    x: np.ndarray | None
    residual: float | None
    witness: np.ndarray | None
    iterations: int
    starts_tried: int = 0
    trace: list | None = None
    stats: dict | None = None  # LP, memo and abandon counts, not reported

    def to_dict(self):
        return {
            "status": self.status,
            "x": None if self.x is None else np.asarray(self.x).tolist(),
            "residual": self.residual,
            "witness": None if self.witness is None else np.asarray(self.witness).tolist(),
            "iterations": self.iterations,
            "starts_tried": self.starts_tried,
        }


def _candidate_key(x):
    """Rank of an accepted point: smaller norm, then lexicographically,
    both of x rounded to 12 decimals, so points that differ by rounding
    alone tie and the earliest stays.  Every accepted residual is at
    least ``-tol_solve`` and at most 0 but for the LP's rounding, so it
    does not rank them."""
    x = np.round(x, 12)
    return float(np.linalg.norm(x)), tuple(x)


def solve(instance: GqviInstance, collect_trace=False) -> SolveReport:
    """Multistart damped fixed-point iteration with a grid fallback.

    From each start, ``x <- (1 - gamma) x + gamma y*(x)`` until the point
    is stationary or accepted (feasible for its own constraint set with
    residual above ``-tol_solve``).  When a step that is not accepted
    ends on the final basis of the step before it, with the same vertex
    array of T(x), the solver tries once per basis and start the jump to
    the limit of those steps (``_affine_jump``).  A finite jump that lies
    in its own constraint set is kept when a fresh minimax LP there,
    counted as an iteration and traced, passes the residual test;
    otherwise damping goes on from x.  Operator evaluation errors abandon
    the branch; if no branch qualifies, the residual is maximized over a
    grid of the fixed-point set and reported as ``residual_floor``.
    Accepted candidates rank by smaller norm, then lexicographically;
    their residuals are at most 0 but for the LP's rounding, so they do
    not rank them.  Grid points rank by residual first.

    The starts run one after another, and the grid fallback scans its
    points in grid order.  Every minimax LP after the first, damped
    step, jump or grid point, starts from the optimal basis of the LP
    before it when both share one vertex array of T(x) (``lp.warm_solve``),
    across starts too; a decline solves it cold with ``solve_lp``.  So
    its y* differs from a cold solve's in the last bits, and the
    warm path declines where the optimum may be a face and ``solve_lp``
    must pick the point.  The winner's recheck is ``minimax_value``,
    always cold.  ``stats`` counts the minimax LPs (``minimax_lps``),
    those the LP cache replayed and solved from scratch,
    the states it recorded for them, the LPs answered ``warm``, the warm
    attempts declined by reason (``warm_declined``), the jumps tried
    and kept (``affine_tried``, ``affine_kept``), and under
    ``abandoned`` the branches given up, by error type;
    ``minimax_lps == replayed + solved + warm``.
    """
    cfg = instance.config
    cm = instance.constraint_map
    fix = fixed_point_set(cm)
    rng = np.random.default_rng(cfg.seed)
    starts = [fix.chebyshev_center()[0]]
    starts.extend(fix.vertices())
    starts.extend(fix.sample(rng, cfg.starts))

    iterations = 0
    candidates = []
    trace = [] if collect_trace else None
    counts = Counter(minimax_lps=0, replayed=0, solved=0, nodes=0, warm=0,
                     warm_declined=Counter(), affine_tried=0, affine_kept=0,
                     abandoned=Counter())
    warm = [None, None]  # the last optimal minimax LP's vertices and basis
    for start, x in enumerate(starts):
        x = np.array(x, dtype=float)
        last, tried = None, set()  # the last step's (vertices, basis)
        for _ in range(cfg.max_iters):
            try:
                result, vertices, a_ub, basis = _minimax(
                    instance.operator, cm, x, counts, warm)
            except _ABANDON as exc:  # an operator hole or an empty slice
                counts["abandoned"][type(exc).__name__] += 1
                break
            iterations += 1
            if collect_trace:
                trace.append((start, x, result.value))
            # Residual first: most steps fail it, so contains runs rarely.
            if result.value >= -cfg.tol_solve and cm.contains(x, x):
                candidates.append((x, result))
                break
            if (last is not None and last[0] is vertices and last[1] == basis
                    and basis not in tried):
                tried.add(basis)
                counts["affine_tried"] += 1
                jump = _affine_jump(cm, vertices, a_ub, basis, x,
                                    result.y_opt)
                # The acceptance test, contains first: a jump out of
                # K(jump) is dropped without an LP, and the LP of one in
                # it is feasible.
                if jump is not None and cm.contains(jump, jump):
                    try:
                        landed = _minimax(instance.operator, cm, jump,
                                          counts, warm)[0]
                    except _ABANDON:  # the branch goes on from x
                        landed = None
                    else:
                        iterations += 1
                        if collect_trace:
                            trace.append((start, jump, landed.value))
                    if landed is not None and landed.value >= -cfg.tol_solve:
                        counts["affine_kept"] += 1
                        candidates.append((jump, landed))
                        break
            last = vertices, basis
            x_next = (1.0 - cfg.gamma) * x + cfg.gamma * result.y_opt
            step = x_next - x
            if math.sqrt(step.dot(step)) <= 1e-12:
                break
            x = x_next

    def report(status, x=None, residual=None, witness=None):
        return SolveReport(status, x, residual, witness, iterations,
                           len(starts), trace,
                           {**counts, "warm_declined": dict(counts["warm_declined"]),
                            "abandoned": dict(counts["abandoned"])})

    if not candidates:
        mesh = max(fix.diameter() / cfg.mesh_divisions, 1e-9)
        best = best_key = None
        for g in _grid_points(fix, mesh):
            try:
                result, vertices = _minimax(instance.operator, cm, g,
                                            counts, warm)[:2]
            except _ABANDON as exc:
                counts["abandoned"][type(exc).__name__] += 1
                continue
            iterations += 1
            key = (-result.value, *_candidate_key(g))
            if best is None or key < best_key:
                best, best_key = (g, result, vertices), key
        if best is None:
            return report("infeasible")
        x_best, res_best, vertices = best
        status = "solved" if (res_best.value >= -cfg.tol_solve
                              and cm.contains(x_best, x_best)) else "residual_floor"
        return report(status, x_best, float(res_best.value),
                      _witness(vertices, res_best.y_opt, x_best))

    x_best, _ = min(candidates, key=lambda cr: _candidate_key(cr[0]))
    # Solver soundness: re-verify the winner from scratch.
    recheck = minimax_value(instance.operator, cm, x_best)
    ok = cm.contains(x_best, x_best) and recheck.value >= -cfg.tol_solve
    status = "solved" if ok else "residual_floor"
    return report(status, x_best, float(recheck.value), recheck.witness)


def lsc_probe(value_fn, box: Polytope, seed=0):
    """Inner-continuity probe for a polytope-valued map.

    For 12 random probe centers x, the box vertices and a grid, draws
    perturbed points x' at radii r = 1e-1, 1e-2, 1e-3 and measures the
    worst ``dist(y, K(x'))`` over vertices y of K(x) and the x' within
    the terminal radius 1e-3 of x.  Affinely moving maps shrink linearly
    with r; a jump stalls the value and fails the verdict (above 1e-2).
    Every x' is drawn, so the draws do not depend on the map, but only
    those within the terminal radius are evaluated.

    Per center, the map is called once, for its vertices.  Per draw, the
    two random numbers and the step length ``r s`` come first: a step
    past the reach by more than the rounding of ``x + r s u`` can take
    back (``|fl(x') - x| >= r s (1 - 8 eps) - 2 eps |x|``) skips the draw
    before x' is built.  The other draws are built and measured, and
    those in the box and within the reach call the map.
    """
    rng = np.random.default_rng(seed)
    radii = (1e-1, 1e-2, 1e-3)
    reach = radii[-1] + 1e-15
    mesh = max(box.diameter() / 8.0, 1e-9)
    points = np.vstack([box.sample(rng, 12), box.vertices(),
                        _grid_points(box, mesh)])
    worst_terminal = 0.0
    for x in points:
        try:
            vertices = value_fn(x).vertices()
        except EmptyPolytopeError:
            continue
        cut = reach * (1 + 1e-9) + 1e-12 * (1 + float(np.abs(x).max()))
        for r in radii:
            for _ in range(6):
                direction = rng.normal(size=box.dim)
                s = rng.random() ** (1.0 / box.dim)  # rng.uniform()'s bits
                if r * s > cut:
                    continue  # |x' - x| > reach whatever the rounding
                direction /= math.sqrt(direction.dot(direction))  # np.linalg.norm
                x_p = x + r * direction * s
                step = x_p - x
                if math.sqrt(step.dot(step)) > reach or not box.contains(x_p):
                    continue
                try:
                    moved = value_fn(x_p)
                except EmptyPolytopeError:
                    continue
                _, dist = moved.project_many(vertices)
                worst_terminal = max(worst_terminal, float(dist.max()))
    passed = worst_terminal <= 1e-2
    return {"radii": list(radii), "worst_terminal": worst_terminal,
            "passed": passed}


def hypothesis_report(instance: GqviInstance, seed=0):
    """Informational record of the existence-theorem hypotheses.

    Compactness is structural (every K(x) carries the box constraints),
    the fixed-point set is polyhedral hence closed, and lower
    semicontinuity is probed, not proven.  Failures flag instances where
    the existence result does not apply.
    """
    cm = instance.constraint_map
    failures = cm.validate(seed=seed)
    try:
        fixed_point_set(cm)
        fix_nonempty = True
    except InstanceError:
        fix_nonempty = False
    lsc = lsc_probe(cm.value, cm.box, seed=seed)
    report = {
        "bounded": True,
        "nonempty_scan": {"checked": _SCAN_SAMPLES, "failures": len(failures)},
        # Every value K(x) is a closed convex polytope, so it always lies
        # in the convexity class the theory needs.
        "values_in_class_D": True,
        "fix_k_closed": True,
        "fix_k_nonempty": fix_nonempty,
        "lsc_probe": {"passed": lsc["passed"],
                      "worst_terminal": lsc["worst_terminal"],
                      "radii": lsc["radii"]},
    }
    report["all_passed"] = (not failures) and fix_nonempty and lsc["passed"]
    return report

"""Polytope and solver oracles shared by the tests."""

import dataclasses
import math

import numpy as np
from scipy.optimize import nnls

from adjcone import gqvi, normal_op
from adjcone.geometry import (
    CONE,
    FEAS,
    ZERO,
    EmptyPolytopeError,
    GeneratedCone,
    GeometryError,
    Polytope,
    UnboundedPolytopeError,
    grid_points,
    normal_cone_at,
    weighted_minkowski,
)
from adjcone.lp import solve_lp
from adjcone.quasiconvex import DomainError, StepLevelFunction
from adjcone.serialization import polytope_from_dict


# Non-box nested step families: one polytope (rounded unit normals of a
# rotated simplex plus uniform directions) at scales 1, 2, 3.
def _scaled_family(a, b):
    return {"schema_version": 1, "type": "step", "levels": [0.0, 1.0, 2.0],
            "polytopes": [{"A": a, "b": [s * v for v in b]}
                          for s in (1.0, 2.0, 3.0)]}


STEP_3D = _scaled_family(
    [[-0.83, -0.04, -0.557], [-0.553, -0.364, 0.75], [-0.694, 0.312, -0.649],
     [0.342, 0.859, 0.381], [-0.589, -0.456, -0.667], [-0.511, 0.853, 0.108],
     [0.693, -0.619, -0.369], [0.791, 0.132, -0.597]],
    [1.114, 1.448, 1.436, 1.009, 1.354, 1.001, 1.252, 1.218])
STEP_4D = _scaled_family(
    [[0.912, 0.298, 0.232, 0.157], [-0.211, -0.918, 0.16, -0.295],
     [-0.045, 0.181, -0.981, 0.046], [0.495, 0.689, -0.01, 0.53],
     [-0.722, -0.651, 0.065, 0.224], [0.448, 0.012, 0.217, 0.867],
     [-0.631, -0.683, 0.14, -0.34], [0.624, 0.445, 0.219, -0.603],
     [-0.751, 0.563, 0.336, 0.076]],
    [1.156, 1.441, 1.033, 1.433, 1.414, 1.447, 1.03, 1.119, 1.388])


# Instance fields of dimension 2 beside 1-D data elsewhere in the file.
_SQUARE = {"A": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
           "b": [1.0, 1.0, 1.0, 1.0]}
_POINT_1D = {"A": [[1.0], [-1.0]], "b": [1.0, -1.0]}
_POINT_2D = {"A": _SQUARE["A"], "b": [1.0, 0.0, -1.0, 0.0]}
_K_2D = {"A": [[1.0, 0.0], [-1.0, 0.0]], "b": [0.5, 0.5],
         "D": [[1.0, 0.0], [-1.0, 0.0]], "box": _SQUARE}
_CHART_2D = {"z": [0.5, 0.2], "lambda": 0.5, "z0": [0.0, 0.0], "eps": 0.3}
_OF_K = "expected 1 (the dimension of K)"
_OF_F = "expected 1 (the dimension of the function)"

# (shipped instance, top-level field, its 2-D replacement, the message
# that rejects it).
DIMENSION_MISMATCHES = [
    ("moving_interval", "T", {"kind": "constant", "polytope": _POINT_2D},
     f"T has dimension 2, {_OF_K}"),
    ("moving_interval", "T",
     {"kind": "tabulated", "axis": 0, "breakpoints": [0.0],
      "polytopes": [_POINT_2D, _POINT_2D]},
     f"T has dimension 2, {_OF_K}"),
    ("moving_interval", "T",
     {"kind": "tabulated", "axis": 0, "breakpoints": [0.0],
      "polytopes": [_POINT_1D, _POINT_2D]},
     "T.polytopes must share a dimension, got [1, 2]"),
    ("quasiopt_window1d", "K", _K_2D, f"K has dimension 2, {_OF_F}"),
    ("quasiopt_window1d", "atlas_build", {"region": _SQUARE, "cover_step": 0.25},
     f"atlas_build.region has dimension 2, {_OF_F}"),
    ("quasiopt_window1d", "atlas",
     {"charts": [_CHART_2D], "region": _SQUARE, "cover_step": 0.25},
     f"atlas.region has dimension 2, {_OF_F}"),
]
DIMENSION_IDS = ["T-constant", "T-tabulated", "T-mixed", "quasiopt-K",
                 "atlas-build-region", "atlas-region"]


def lp_bounding_box(polytope):
    """``(lo, hi)`` of ``polytope`` from its 2n coordinate LPs, the check
    that construction once ran for boundedness, kept as the oracle of the
    boundedness certificate and of the lazy ``bounding_box``.  Raises
    ``UnboundedPolytopeError`` or ``EmptyPolytopeError`` as it did."""
    a, b = polytope.halfspaces
    lo = np.empty(polytope.dim)
    hi = np.empty(polytope.dim)
    for j in range(polytope.dim):
        c = np.zeros(polytope.dim)
        c[j] = 1.0
        low = solve_lp(c, a_ub=a, b_ub=b)
        if low.status == "unbounded":
            raise UnboundedPolytopeError(f"unbounded below in coordinate {j}")
        if low.status == "infeasible":
            raise EmptyPolytopeError("halfspace system is infeasible")
        high = solve_lp(-c, a_ub=a, b_ub=b)
        if high.status == "unbounded":
            raise UnboundedPolytopeError(f"unbounded above in coordinate {j}")
        lo[j] = low.value
        hi[j] = -high.value
    return lo, hi


def array_axis_layout(a):
    """The numpy form of ``geometry._axis_layout`` that the closed form
    on ``a.tolist()`` replaced: ``(axis, upper)`` per row when every unit
    row of ``a`` is a signed axis within 1e-12, None otherwise."""
    layout = []
    for row in a:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size != 1:
            return None
        j = nz[0]
        if abs(abs(row[j]) - 1.0) > 1e-12:
            return None
        layout.append((j, row[j] > 0))
    return layout


def array_axis_box(layout, b, dim):
    """The numpy form of ``geometry._axis_box``: ``(lo, hi)`` arrays, with
    the same errors."""
    lo = np.full(dim, -np.inf)
    hi = np.full(dim, np.inf)
    for (j, upper), off in zip(layout, b):
        if upper:
            hi[j] = min(hi[j], off)
        else:
            lo[j] = max(lo[j], -off)
    if np.any(np.isinf(lo)) or np.any(np.isinf(hi)):
        raise UnboundedPolytopeError("box is unbounded in a coordinate")
    if np.any(hi < lo - FEAS):
        raise EmptyPolytopeError("box bounds cross")
    return lo, hi


def matrix_contains(polytope, x, tol=None):
    """``Polytope.contains`` by the matrix product over every row."""
    a, b = polytope.halfspaces
    slack = tol if tol is not None else FEAS
    return bool(np.all(a @ np.asarray(x, dtype=float) <= b + slack))


def same_set(first, second, tol=1e-7):
    """Set equality of two polytopes via mutual vertex membership."""
    return (bool(second.contains_many(first.vertices(), tol).all())
            and bool(first.contains_many(second.vertices(), tol).all()))


def assert_projection_kkt(polytope, x, p, d):
    """``(p, d)`` is the projection of ``x``: ``p`` is feasible, ``d`` is
    ``|x - p|``, and ``x - p`` is a nonnegative combination of the rows
    active at ``p`` (inactive rows carry no multiplier)."""
    a, b = polytope.halfspaces
    assert np.all(a @ p <= b + 1e-9)
    assert d == np.linalg.norm(x - p)
    active = a @ p >= b - 1e-9
    _, residual = nnls(a[active].T, x - p)
    assert residual <= 1e-9 * max(1.0, d)


def is_inside_point(polytope, x):
    """Membership in the relative interior (no proper face contains x)."""
    x = np.asarray(x, dtype=float).ravel()
    tol = FEAS
    if not polytope.contains(x, tol):
        return False
    facet_idx, equality_idx = polytope.reduced()
    a, b = polytope.halfspaces
    for i in equality_idx:
        if abs(a[i] @ x - b[i]) > tol:
            return False
    for i in facet_idx:
        if a[i] @ x > b[i] - tol:
            return False
    return True


def band_edge_points(polytope, radius, rng):
    """Points at distance ``radius * (1 -/+ 1e-12)`` from the polytope.

    Each point is a boundary point ``p`` plus a unit vector ``n`` of the
    normal cone at ``p``, so its projection is ``p``: facet centroids
    pushed along their facet normal, vertices pushed along random unit
    combinations of their active normals (there the segment from the
    Chebyshev center leaves the polytope far from ``p``, so the exit-point
    bound is loose), and, for flat polytopes, the vertex centroid pushed
    along each implicit equality normal.
    """
    a, b = polytope.halfspaces
    verts = polytope.vertices()
    active = a @ verts.T >= b[:, None] - 1e-9
    facet_idx, equality_idx = polytope.reduced()
    feet = [verts[active[i]].mean(axis=0) for i in facet_idx]
    normals = [a[i] for i in facet_idx]
    for j, v in enumerate(verts):
        n = rng.uniform(0.1, 1.0, size=active[:, j].sum()) @ a[active[:, j]]
        if np.linalg.norm(n) > 1e-6:
            feet.append(v)
            normals.append(n / np.linalg.norm(n))
    for i in equality_idx:
        feet.append(verts.mean(axis=0))
        normals.append(a[i])
    feet, normals = np.array(feet), np.array(normals)
    return np.vstack([feet + radius * (1.0 + s) * normals
                      for s in (-1e-12, 1e-12)])


class _FreshVertices:
    """A polytope's stand-in that hands out a fresh copy of its vertex
    array at every call."""

    def __init__(self, polytope):
        self.polytope = polytope

    def vertices(self):
        return self.polytope.vertices().copy()


class FreshVertexArrays:
    """``operator`` with a fresh vertex array at every value.  ``gqvi.solve``
    jumps only between two steps that share one vertex array of T(x), so
    on this operator it runs the damped path alone, with the bits that
    ``sequential_solve`` gives."""

    def __init__(self, operator):
        self.operator, self.dim = operator, operator.dim

    def value(self, x):
        return _FreshVertices(self.operator.value(x))


def damped(instance):
    """``instance`` with its operator wrapped in ``FreshVertexArrays``."""
    return dataclasses.replace(instance,
                               operator=FreshVertexArrays(instance.operator))


def sequential_solve(instance, collect_trace=False):
    """The multistart loop of ``solve`` written from the public
    ``minimax_value`` alone, kept as the bit-for-bit oracle of its damped
    path (run ``solve`` on ``damped(instance)``): each start iterates to
    acceptance, stationarity or ``max_iters`` before the next one begins,
    one ``minimax_value`` per step, and the grid fallback evaluates one
    point at a time."""
    cfg = instance.config
    cm = instance.constraint_map
    fix = gqvi.fixed_point_set(cm)
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
                result = gqvi.minimax_value(instance.operator, cm, x)
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
        except (GeometryError, gqvi.InstanceError, ValueError):
            continue

    if not candidates:
        mesh = max(fix.diameter() / cfg.mesh_divisions, 1e-9)
        best = None
        for g in grid_points(fix, mesh):
            try:
                result = gqvi.minimax_value(instance.operator, cm, g)
            except (GeometryError, gqvi.InstanceError, ValueError):
                continue
            iterations += 1
            key = (-result.value, *gqvi._candidate_key(g))
            if best is None or key < best_key:
                best, best_key = (g, result), key
        if best is None:
            return gqvi.SolveReport("infeasible", None, None, None, iterations,
                                    len(starts), trace)
        x_best, res_best = best
        status = "solved" if (res_best.value >= -cfg.tol_solve
                              and cm.contains(x_best, x_best)) else "residual_floor"
        return gqvi.SolveReport(status, x_best, float(res_best.value), res_best.witness,
                                iterations, len(starts), trace)

    scored = sorted(candidates, key=lambda cr: gqvi._candidate_key(cr[0]))
    x_best, _ = scored[0]
    recheck = gqvi.minimax_value(instance.operator, cm, x_best)
    ok = cm.contains(x_best, x_best) and recheck.value >= -cfg.tol_solve
    status = "solved" if ok else "residual_floor"
    return gqvi.SolveReport(status, x_best, float(recheck.value), recheck.witness,
                            iterations, len(starts), trace)


def stacked_slice(cm, x):
    """K(x) of the moving polytope ``cm`` as ``MovingPolytope.value`` built
    it before it reused its map's unit rows: a ``Polytope`` of the stacked
    rows, normalised at every x; kept as the bit-for-bit oracle of
    ``value``, its errors and its feasibility LP."""
    box_a, box_b = cm.box.halfspaces
    return Polytope(np.vstack([cm.a, box_a]),
                    np.concatenate([cm.b + cm.d @ x, box_b]),
                    check_bounded=False)


def bits(a):
    return None if a is None else (np.asarray(a).tobytes(), np.asarray(a).shape)


def assert_same_report(got, want):
    assert (got.status, got.iterations, got.starts_tried) == (
        want.status, want.iterations, want.starts_tried)
    assert bits(got.x) == bits(want.x)
    assert bits(got.witness) == bits(want.witness)
    assert bits(got.residual) == bits(want.residual)
    if want.trace is None:
        assert got.trace is None
    else:
        assert [(s, bits(x), bits(v)) for s, x, v in got.trace] == [
            (s, bits(x), bits(v)) for s, x, v in want.trace]


def uncached_global_base(atlas, f, x, *, verify=True):
    """``global_base`` as it was before the atlas kept its checked sections
    and base checks, kept as their bit-for-bit oracle: every call builds
    each active section and checks every invariant of the base."""
    x = np.asarray(x, dtype=float).ravel()
    active, weights = atlas.weights(x)
    cone = normal_op.adjusted_normal_cone(f, x)
    if cone.is_zero:
        raise GeometryError("zero cone admits no base; is x near the argmin?")
    sections = [normal_op._ball_section(cone, atlas.charts[i]) for i in active]
    if len(sections) == 1:
        base = sections[0]
    else:
        base = weighted_minkowski(list(zip(weights, sections)))
    result = normal_op.BaseResult(
        base=base, active_charts=tuple((int(i), float(w))
                                       for i, w in zip(active, weights)),
        cone=cone)
    if verify:
        verts = base.vertices()
        norms = np.linalg.norm(verts, axis=1)
        if norms.max() > 1.0 + FEAS:
            raise normal_op.BaseInvariantError("base leaves the dual unit ball")
        _, min_norm = base.project(np.zeros(f.dim))
        if min_norm < ZERO:
            raise normal_op.BaseInvariantError(
                f"base min-norm {min_norm:.3e} below the nonzero margin")
        regenerated = GeneratedCone.from_rays(verts, dim=f.dim)
        if not regenerated.equals(cone, CONE):
            raise normal_op.BaseInvariantError(
                "base does not generate the normal cone")
    return result


def normalized_base(f, x):
    """Hull of the unit-normalized generators of the adjusted normal cone:
    the finite-dimensional base of the abstract (unit sphere intersected
    with the closed normal operator) that the atlas replaces."""
    cone = normal_op.adjusted_normal_cone(f, x)
    if cone.is_zero:
        raise GeometryError("the zero cone has no base")
    norms = np.linalg.norm(cone.generators, axis=1)
    return Polytope.from_vertices(cone.generators / norms[:, None])


def chart_base(chart, f, x):
    """Section of the adjusted normal cone at x by the hyperplane of
    ``chart``, checked to lie in the dual unit ball; x must lie in the
    chart ball."""
    x = np.asarray(x, dtype=float).ravel()
    if np.linalg.norm(x - chart.center) > chart.radius + FEAS:
        raise ValueError("point outside the chart ball")
    return normal_op._ball_section(normal_op.adjusted_normal_cone(f, x), chart)


def uncached_adjusted_normal_cone(f, x):
    """``adjusted_normal_cone`` as it was before it kept one cone per key,
    kept as its bit-for-bit oracle: every call assembles the cone."""
    x = np.asarray(x, dtype=float).ravel()
    value = f.evaluate(x)
    if math.isinf(value):
        raise DomainError("point outside the domain")
    if f.in_argmin(x):
        return normal_cone_at(f.polytopes[0], x)
    sub = f.sublevel(value).polytope
    strict = f.strict_sublevel(value).polytope
    anchor, radius = strict.project(x)
    if radius <= FEAS:
        raise GeometryError("enlargement radius degenerate at x")
    ray = (x - anchor) / radius
    facets = normal_cone_at(sub, x)
    gens = np.vstack([facets.generators, ray[None, :]])
    return GeneratedCone.from_rays(gens, dim=f.dim).minimal()


def uncached_closedness_probe(f, x, approach_sequences=100, seed=0):
    """``closedness_probe`` as it was before it kept one cone per distinct
    approach point, kept as its bit-for-bit oracle: every approach point
    computes its cone afresh."""
    x = np.asarray(x, dtype=float).ravel()
    normal_op._require_regular_point(f, x)
    cone_x = normal_op.adjusted_normal_cone(f, x)
    rng = np.random.default_rng(seed)
    violations = []
    checked = 0
    for _ in range(approach_sequences):
        direction = rng.normal(size=f.dim)
        direction /= np.linalg.norm(direction)
        tail = []
        for t in (1e-1, 1e-2, 1e-3, 1e-4):
            point = x + t * direction
            if math.isinf(f.evaluate(point)) or f.in_argmin(point):
                continue
            cone_k = normal_op.adjusted_normal_cone(f, point)
            if not cone_k.is_zero:
                tail.append((t, cone_k.generators))
        if len(tail) < 2:
            continue
        (t_fin, finest), (t_sec, second) = tail[-1], tail[-2]
        for g in finest:
            drift_all = np.linalg.norm(second - g, axis=1)
            match = int(np.argmin(drift_all))
            drift = float(drift_all[match])
            if drift > 1e-3:
                continue
            checked += 1
            limit = g + (g - second[match]) * (t_fin / (t_sec - t_fin))
            nrm = np.linalg.norm(limit)
            if nrm > 1e-12:
                limit = limit / nrm
            slack = CONE + 0.5 * drift
            if not cone_x.contains(limit, slack):
                violations.append({"direction": direction.copy(),
                                   "limit": limit.copy(), "drift": drift})
    return normal_op.ProbeVerdict(passed=not violations, violations=violations,
                                  checked=checked, kind="closedness")


def sublevel_contains(f, level, y):
    """Membership of y in the sublevel set of the step function ``f`` at
    ``level``, over the union of the level polytopes (the function as
    defined), as the oracle of the single-polytope ``sublevel``."""
    return any(poly.contains(y) for lam, poly in zip(f.levels, f.polytopes)
               if lam <= level + 1e-12)


def stable_probe_points(atlas, margin=1e-3, limit=None, mesh=None):
    """Grid points covered by exactly one chart with every chart boundary
    at least ``margin`` away; the base map is locally a single chart
    section there, the regime the deviation probe needs.  ``limit`` keeps
    the first points in grid order."""
    grid = grid_points(atlas.region, mesh if mesh else atlas.cover_step / 8.0)
    keep = np.concatenate([
        ((gaps > 0).sum(axis=1) == 1)
        & (np.abs(gaps).min(axis=1, initial=np.inf) >= margin)
        for _, gaps in atlas._gap_blocks(grid)])
    return grid[keep][:limit] if limit else grid[keep]


@dataclasses.dataclass
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
    def gap(self):
        return abs(self.minmax - self.maxmin)

    @property
    def gap_full(self):
        return abs(self.minmax - self.maxmin_full)


def sion_check(operator, constraint_map, x):
    """Exchange min and max of the minimax residual at x; the gap must
    vanish on polytope data."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    minmax = gqvi.minimax_value(operator, constraint_map, x).value
    feasible = constraint_map.value(x)
    k_a, k_b = feasible.halfspaces
    value_poly = operator.value(x)
    best = -math.inf
    for v in value_poly.vertices():
        sol = solve_lp(v, a_ub=k_a, b_ub=k_b)
        if not sol.optimal:
            raise gqvi.InstanceError(f"inner LP ended with status {sol.status}")
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
        raise gqvi.InstanceError(f"full maxmin LP ended with status {sol.status}")
    return SionResult(minmax=minmax, maxmin=best, maxmin_full=float(-sol.value))


def brute_force_quasiopt(instance, mesh):
    """All grid points of fix K that minimize f over their own constraint
    set at grid resolution, independent of the solver path: the oracle of
    ``solve_quasiopt``."""
    cm = instance.constraint_map
    fix = gqvi.fixed_point_set(cm)
    lo, hi = cm.box.bounding_box()
    box_grid = grid_points(Polytope.from_box(lo, hi), mesh)
    f_on_grid = instance.f.evaluate_many(box_grid)
    solutions = []
    for x in grid_points(fix, mesh):
        if not cm.contains(x, x):
            continue
        fx = instance.f.evaluate(x)
        if math.isinf(fx):
            continue
        mask = np.all(box_grid @ cm.a.T <= cm.b + cm.d @ x + FEAS, axis=1)
        if mask.any() and fx > f_on_grid[mask].min() + instance.tol_opt:
            continue
        solutions.append(x)
    return np.array(solutions) if solutions else np.zeros((0, instance.f.dim))


def eager_levels(data, where="function"):
    """The level polytopes of the step family ``data``, each certified on
    construction, in level order."""
    return [polytope_from_dict(p, f"{where}.polytopes[{i}]")
            for i, p in enumerate(data["polytopes"])]


def eager_step_function(data, where="function"):
    """The step function of ``data`` as it was loaded before families
    were certified at once: ``eager_levels``, nestedness by the vertex
    test alone and every level's Chebyshev centre computed at once.  The
    oracle of ``StepLevelFunction.from_uncertified``."""
    polytopes = eager_levels(data, where)
    f = StepLevelFunction(data["levels"], polytopes, validate=False)
    if data.get("validate", True):
        for j, (inner, outer) in enumerate(zip(polytopes, polytopes[1:])):
            if not outer.contains_many(inner.vertices(), FEAS).all():
                raise ValueError(f"nestedness violated between levels "
                                 f"{f.levels[j]} and {f.levels[j + 1]}")
    for p in polytopes:
        p.chebyshev_center()
    return f

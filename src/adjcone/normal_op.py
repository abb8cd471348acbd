"""Normal cone operators, local cone bases, and the glued global base map.

For a step level function the strict normal cone at a point is the polar
of the translated strict sublevel polytope.  The adjusted normal cone at
x is the normal cone at x of the adjusted sublevel set
``S^a(x) = sub ∩ E``, where ``sub`` is the sublevel polytope at f(x) and
``E`` the rho(x)-enlargement of the strict sublevel polytope.  It is
assembled exactly from the active facet normals of ``sub`` and the
enlargement ray ``x - P_strict(x)``, i.e. as ``N_sub(x) + N_E(x)``.

The inclusion ``N_sub(x) + N_E(x) ⊆ N_{sub ∩ E}(x)`` always holds: each
generator is an outward normal at x of a set containing ``sub ∩ E``.
Equality is the sum rule, which holds when ``sub`` meets the interior of
``E`` (Rockafellar, *Convex Analysis*, Thm 23.8, with ``sub``
polyhedral).  The anchor ``P_strict(x)`` lies in ``int E`` because
rho(x) > 0, so ``sub.contains(P_strict(x))`` certifies the sum rule; on
nested families the strict sublevel set lies inside ``sub`` and the
certificate always holds.  Non-nested diagnostic families (corrupted
instances) can fail it, and there the assembled cone may be smaller than
the true normal cone.

The generators are fixed by the index of ``sub``, its facet rows active at
x and the bytes of the ray, so ``adjusted_normal_cone`` assembles the cone
once per such key and keeps it on the function (successes only, off the
argmin set); every other call takes f(x), the anchor and the ray afresh.

A local chart anchors a section hyperplane that cuts every normal cone
on its ball into a compact base inside the dual unit ball.  An atlas is
a finite covering by such charts together with piecewise-linear hat
bumps; normalizing the bumps yields a partition of unity and the global
base map is the weighted Minkowski combination of the per-chart bases.

The checks that the base generates the cone are made on the sections,
once per (chart, cone bits), not on the sum.  With positive weights
summing to one and sections S_i of the cone C with cone(S_i) = C, each
vertex of ``sum_i w_i S_i`` is a convex combination of points of C, so
it lies in C; and each extreme ray g of C meets every S_i, so the sum
holds a positive multiple of g.  Hence cone(sum) = C, and the hull
rounding of the sum (about 1e-15) lies far below the ``CONE`` slack.

Every atlas query (bumps, weights, covering and the partition defect)
runs through one kernel, ``Atlas._gap_blocks``:
it holds the chart centers and radii as arrays and yields the gaps
``radius - |x - center|`` in row blocks of bounded size, each with the
bits of the scalar ``LocalChart.bump`` (``geometry._row_norms`` argues
why), so points on a chart rim fall on the same side in both.

The probes at the bottom of the module turn the continuity statements
into numbers: upper-Hausdorff deviation curves for upper semicontinuity,
accumulation-direction checks for closedness, and sign tests for
quasimonotonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    CONE,
    FEAS,
    ZERO,
    GeneratedCone,
    GeometryError,
    Polytope,
    _active_facets,
    _row_norms,
    grid_points,
    normal_cone_at,
    polar_extreme_rays,
    polytope_distance,
    weighted_minkowski,
)
from .lp import _bytes
from .quasiconvex import ArgminError, DomainError, StepLevelFunction

__all__ = [
    "ChartError",
    "CoverageError",
    "BaseInvariantError",
    "LocalChart",
    "Atlas",
    "BaseResult",
    "ProbeReport",
    "ProbeVerdict",
    "strict_normal_cone",
    "adjusted_normal_cone",
    "polar_of_samples",
    "build_chart",
    "build_atlas",
    "global_base",
    "usc_probe",
    "closedness_probe",
    "quasimonotonicity_probe",
]

# Point-chart pairs per block of the atlas kernel (``Atlas._gap_blocks``).
_PAIR_BLOCK = 1 << 14
# Densification rounds of ``build_atlas`` before it gives up.
_DENSIFY_ROUNDS = 8
# Entries per ``Atlas`` cache; past the cap the oldest is dropped.
_ATLAS_CACHE = 256


class ChartError(GeometryError):
    """No valid chart exists at the requested center."""


class CoverageError(GeometryError):
    """The atlas (or its construction) leaves part of the region uncovered."""


class BaseInvariantError(GeometryError):
    """A computed base violates one of its defining invariants."""


def _require_regular_point(f, x):
    value = f.evaluate(x)
    if math.isinf(value):
        raise DomainError("point outside the domain")
    if f.in_argmin(x):
        raise ArgminError("operation undefined on the argmin set")
    return value


def strict_normal_cone(f: StepLevelFunction, x):
    """Polar of the translated strict sublevel polytope at x.

    The strict sublevel realization is full-dimensional on valid chart
    instances, so the polar cone is pointed and its extreme rays are
    enumerated from the translated vertices.
    """
    x = np.asarray(x, dtype=float).ravel()
    value = _require_regular_point(f, x)
    handle = f.strict_sublevel(value)
    if handle.is_empty:
        raise ArgminError("strict sublevel set empty; cone is the whole space")
    directions = handle.polytope.vertices() - x
    rays = polar_extreme_rays(directions, dim=f.dim)
    if rays.shape[0] == 0:
        raise GeometryError("strict normal cone enumeration found no rays")
    return GeneratedCone.from_rays(rays, dim=f.dim)


def adjusted_normal_cone(f: StepLevelFunction, x):
    """Normal cone of the adjusted sublevel set at x.

    Argmin points return the normal cone of the bottom polytope (zero
    cone in its interior).  Elsewhere the generators are the active facet
    normals of the sublevel polytope ``sub`` plus the enlargement ray
    ``x - P_strict(x)``.  Every one of them is an outward normal at x of
    a set containing ``sub ∩ E``, so the assembled cone always lies in
    the true normal cone; it equals it when the anchor ``P_strict(x)``,
    an interior point of the enlargement ``E``, lies in ``sub`` (the sum
    rule, Rockafellar Thm 23.8), which nesting guarantees.  The cone is
    kept in ``f._cones`` by (index of ``sub``, active facets, ray bytes).
    """
    x = np.asarray(x, dtype=float).ravel()
    value = f.evaluate(x)
    if math.isinf(value):
        raise DomainError("point outside the domain")
    if f.in_argmin(x):
        return normal_cone_at(f.polytopes[0], x)

    sub = f.sublevel(value)
    anchor, radius = f.strict_sublevel(value).polytope.project(x)
    if radius <= FEAS:
        raise GeometryError("enlargement radius degenerate at x")
    ray = (x - anchor) / radius
    active = _active_facets(sub.polytope, x)
    key = (sub.level_index, active, ray.tobytes())
    cone = f._cones.get(key)
    if cone is None:
        facets = normal_cone_at(sub.polytope, x, active)
        gens = np.vstack([facets.generators, ray[None, :]])
        cone = GeneratedCone.from_rays(gens, dim=f.dim).minimal()
        _remember(f._cones, key, cone)
    return cone


def polar_of_samples(points, x, dim):
    """Polar cone of a sampled set anchored at x, as a generated cone:
    rays making nonpositive products with every sampled offset."""
    directions = np.atleast_2d(np.asarray(points, dtype=float)) - x
    mask = np.linalg.norm(directions, axis=1) > 1e-12
    try:
        rays = polar_extreme_rays(directions[mask], dim=dim)
    except GeometryError:
        rays = np.zeros((0, dim))
    return GeneratedCone.from_rays(rays, dim=dim)


@dataclass(frozen=True)
class LocalChart:
    """One chart of the covering: a ball on which a fixed hyperplane cuts
    every normal cone into a compact base.

    ``center`` is the chart point, ``level`` the strictly smaller level
    used for the interior anchor, ``anchor`` an interior point of that
    strict sublevel set (a Chebyshev center), ``radius`` the ball radius.
    The section hyperplane is ``{v : v . normal = radius}`` with
    ``normal = center - anchor``.
    """

    center: np.ndarray
    level: float
    anchor: np.ndarray
    radius: float

    @property
    def normal(self) -> np.ndarray:
        return self.center - self.anchor

    def bump(self, x) -> float:
        """Piecewise-linear hat: positive strictly inside the ball.  The
        scalar reference of the atlas kernel (``Atlas._gap_blocks``)."""
        return max(0.0, self.radius - float(np.linalg.norm(np.asarray(x, dtype=float).ravel() - self.center)))


def build_chart(f: StepLevelFunction, z, radius_cap=None) -> LocalChart:
    """Construct the chart at z: anchor at the Chebyshev center of the
    strict sublevel set, level at the midpoint of the adjacent level pair,
    radius small enough that the ball avoids the chosen sublevel set and
    the doubled ball around the anchor stays inside the strict set."""
    z = np.asarray(z, dtype=float).ravel()
    value = _require_regular_point(f, z)
    j = f.level_index(z)
    prev_level = f.levels[j - 1]
    level = 0.5 * (prev_level + value)
    strict = f.strict_sublevel(value).polytope
    anchor, cheb_radius = strict.chebyshev_center()
    if cheb_radius <= FEAS:
        raise ChartError("strict sublevel set has empty interior at this level")
    sub_at_level = f.sublevel(level).polytope
    dist = sub_at_level.project(z)[1]
    if dist <= FEAS:
        raise ChartError("chart center touches the sublevel set")
    radius = min(0.9 * dist, 0.5 * cheb_radius)
    if radius_cap is not None:
        radius = min(radius, float(radius_cap))
    if radius <= 0:
        raise ChartError("no positive chart radius available")
    return LocalChart(center=z, level=level, anchor=anchor, radius=radius)


def _ball_section(cone, chart):
    """Section of ``cone`` by the chart hyperplane, checked to lie in the
    dual unit ball."""
    base = cone.section(chart.normal, chart.radius)
    norms = np.linalg.norm(base.vertices(), axis=1)
    if norms.max() > 1.0 + FEAS:
        raise ChartError(
            f"section leaves the dual unit ball (max norm {norms.max():.12f})")
    return base


def _check_min_norm(base):
    """Raise ``BaseInvariantError`` if ``base`` comes within ``ZERO`` of
    the origin."""
    _, min_norm = base.project(np.zeros(base.dim))
    if min_norm < ZERO:
        raise BaseInvariantError(
            f"base min-norm {min_norm:.3e} below the nonzero margin")


def _remember(cache, key, value):
    """Store ``value`` under ``key``, dropping the oldest entry past
    ``_ATLAS_CACHE``."""
    if len(cache) >= _ATLAS_CACHE:
        del cache[next(iter(cache))]
    cache[key] = value


@dataclass
class Atlas:
    """Finite chart covering of a compact region with hat-bump weights;
    ``centers`` (k x n) and ``radii`` (k) hold the charts as arrays.

    ``_sections`` keeps the certified section per (chart index, cone
    generator shape and bytes), successes only: in the dual unit ball,
    min-norm at least ``ZERO`` and generating the cone within ``CONE``.
    """

    charts: tuple
    region: Polytope
    cover_step: float
    _grid: np.ndarray | None = field(default=None, repr=False)
    centers: np.ndarray = field(init=False, repr=False)
    radii: np.ndarray = field(init=False, repr=False)
    _sections: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        self.centers = np.array([c.center for c in self.charts], dtype=float
                                ).reshape(len(self.charts), self.region.dim)
        self.radii = np.array([c.radius for c in self.charts], dtype=float)

    def _gap_blocks(self, points):
        """Yield ``(block, gaps)`` over row blocks of ``points``, with
        ``gaps[i, j] = radius_j - |block[i] - center_j|`` bit for bit as in
        ``LocalChart.bump``.  A block holds at most ``_PAIR_BLOCK`` point-chart
        pairs.  No points still yield one empty block, so the callers that
        concatenate per-block results always get an array."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.region.dim:
            raise ValueError(f"points have {pts.shape[1]} coordinates, "
                             f"the atlas {self.region.dim}")
        step = max(1, _PAIR_BLOCK // max(1, len(self.charts)))
        for start in range(0, max(len(pts), 1), step):
            block = pts[start:start + step]
            yield block, self.radii - _row_norms(block[:, None, :] - self.centers)

    def bump_values(self, x):
        x = np.asarray(x, dtype=float).ravel()
        _, gaps = next(self._gap_blocks(x[None, :]))
        return np.maximum(gaps[0], 0.0)

    def weights(self, x):
        """Active chart indices and their partition-of-unity weights."""
        bumps = self.bump_values(x)
        total = bumps.sum()
        if total <= 0:
            raise CoverageError(f"no chart covers {np.asarray(x).tolist()}")
        active = np.nonzero(bumps > 0)[0]
        return active, bumps[active] / total

    def covers_many(self, points):
        """Whether some chart holds each row of ``points`` strictly inside
        its ball."""
        return np.concatenate([(gaps > 0).any(axis=1)
                               for _, gaps in self._gap_blocks(points)])

    def partition_defect(self):
        """Largest ``|sum of weights - 1|`` over the verification grid, with
        the bits of ``weights``: rows are grouped by their number of active
        charts, so each group sums its active weights as one array."""
        worst = 0.0
        for block, gaps in self._gap_blocks(self.verification_grid()):
            bumps = np.maximum(gaps, 0.0)
            totals = bumps.sum(axis=1)
            if (totals <= 0).any():
                x = block[np.argmax(totals <= 0)]
                raise CoverageError(f"no chart covers {x.tolist()}")
            active = bumps > 0
            counts = active.sum(axis=1)
            for m in np.unique(counts):
                rows = counts == m
                w = bumps[rows][active[rows]].reshape(-1, m) / totals[rows, None]
                worst = max(worst, float(np.abs(w.sum(axis=1) - 1.0).max()))
        return worst

    def verification_grid(self):
        """Deterministic grid of mesh cover_step/4 inside the region."""
        if self._grid is None:
            self._grid = grid_points(self.region, self.cover_step / 4.0)
        return self._grid

    def section(self, i, cone):
        """``_ball_section`` of ``cone`` by chart ``i``, certified and kept
        in ``_sections``; a failing section raises and is not kept."""
        key = (int(i), _bytes(cone.generators))
        base = self._sections.get(key)
        if base is None:
            base = _ball_section(cone, self.charts[i])
            _check_min_norm(base)
            regenerated = GeneratedCone.from_rays(base.vertices(), dim=cone.dim)
            if not regenerated.equals(cone, CONE):
                raise BaseInvariantError("base does not generate the normal cone")
            _remember(self._sections, key, base)
        return base


def build_atlas(f: StepLevelFunction, region: Polytope, cover_step,
                argmin_margin=None, radius_cap=None) -> Atlas:
    """Charts on a grid over the region, densified until the hat bumps
    cover a verification grid of mesh ``cover_step / 4``.

    The region must keep a declared margin from the argmin set (default:
    one cover step); the global base map is only defined away from the
    argmin anyway and charts shrink to nothing against it.
    """
    margin = cover_step if argmin_margin is None else float(argmin_margin)
    gap = polytope_distance(region, f.argmin_set)
    if gap < margin - FEAS:
        raise CoverageError(
            f"region is {gap:.3g} from the argmin set, margin {margin:.3g} required")

    charts = []

    def try_add(z):
        if math.isinf(f.evaluate(z)) or f.in_argmin(z):
            return False
        try:
            charts.append(build_chart(f, z, radius_cap=radius_cap))
        except ChartError:
            return False
        return True

    for z in grid_points(region, cover_step):
        try_add(z)

    atlas = Atlas(tuple(charts), region, float(cover_step))
    grid = atlas.verification_grid()
    for _ in range(_DENSIFY_ROUNDS):
        holes = grid[~atlas.covers_many(grid)]
        if len(holes) == 0:
            return atlas
        added = 0
        for z in holes:
            if try_add(z):
                added += 1
        if added == 0:
            break
        atlas = Atlas(tuple(charts), region, float(cover_step))
    raise CoverageError("covering failed after densification "
                        f"({len(holes)} grid points uncovered)")


@dataclass
class BaseResult:
    """Output of the global base map at one point."""

    base: Polytope
    active_charts: tuple  # (chart index, weight)
    cone: GeneratedCone

    def to_dict(self):
        return {
            "vertices": self.base.vertices().tolist(),
            "active_charts": [[int(i), float(w)] for i, w in self.active_charts],
            "cone_generators": self.cone.generators.tolist(),
        }


def global_base(atlas: Atlas, f: StepLevelFunction, x) -> BaseResult:
    """Partition-of-unity combination of the active chart bases.

    Each section is certified once by ``Atlas.section``; a sum of several
    generates the cone by the module's argument, and only its ball and
    min-norm checks run per point.
    """
    x = np.asarray(x, dtype=float).ravel()
    active, weights = atlas.weights(x)
    cone = adjusted_normal_cone(f, x)
    if cone.is_zero:
        raise GeometryError("zero cone admits no base; is x near the argmin?")
    sections = [atlas.section(i, cone) for i in active]
    if len(sections) == 1:
        base = sections[0]
    else:
        base = weighted_minkowski(list(zip(weights, sections)))
        if np.linalg.norm(base.vertices(), axis=1).max() > 1.0 + FEAS:
            raise BaseInvariantError("base leaves the dual unit ball")
        _check_min_norm(base)
    return BaseResult(base=base,
                      active_charts=tuple((int(i), float(w))
                                          for i, w in zip(active, weights)),
                      cone=cone)


@dataclass
class ProbeReport:
    """Deviation curve of a set-valued map around a probe point."""

    point: np.ndarray
    radii: tuple
    deviations: tuple
    holes: int
    passed: bool

    def rows(self):
        return list(zip(self.radii, self.deviations))

    def to_dict(self):
        return {
            "point": np.asarray(self.point).tolist(),
            "radii": list(self.radii),
            "deviations": list(self.deviations),
            "holes": self.holes,
            "passed": self.passed,
        }


@dataclass
class ProbeVerdict:
    passed: bool
    violations: list
    checked: int
    kind: str

    def to_dict(self):
        return {
            "passed": self.passed,
            "checked": self.checked,
            "kind": self.kind,
            "violations": [
                {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                 for k, v in viol.items()}
                for viol in self.violations[:10]
            ],
            "violation_count": len(self.violations),
        }


def _as_polytope(value):
    if isinstance(value, BaseResult):
        return value.base
    if isinstance(value, Polytope):
        return value
    raise TypeError("map must produce Polytope or BaseResult values")


def usc_probe(map_fn, x, radii=(1e-1, 1e-2, 1e-3, 1e-4),
              samples_per_radius=20, seed=0, tol_probe=1e-6) -> ProbeReport:
    """Upper-Hausdorff deviation curve of a compact-valued map at x.

    Samples points in shrinking balls, pools them, and reports the
    cumulative deviation per radius, which is non-increasing down the
    ladder by construction.  Verdict: terminal deviation below the probe
    tolerance.  Points where the map is undefined count as coverage
    holes, not failures.
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    reference = _as_polytope(map_fn(x))
    rng = np.random.default_rng(seed)
    radii = tuple(sorted(radii, reverse=True))
    samples = []
    holes = 0
    for r in radii:
        for _ in range(samples_per_radius):
            direction = rng.normal(size=n)
            direction /= np.linalg.norm(direction)
            scale = rng.uniform() ** (1.0 / n)
            point = x + r * scale * direction
            try:
                value = _as_polytope(map_fn(point))
            except (CoverageError, DomainError, ArgminError, GeometryError):
                holes += 1
                continue
            _, dists = reference.project_many(value.vertices())
            samples.append((float(np.linalg.norm(point - x)), float(dists.max())))
    deviations = []
    for r in radii:
        within = [d for dist, d in samples if dist <= r + 1e-15]
        deviations.append(max(within) if within else 0.0)
    passed = deviations[-1] <= tol_probe
    return ProbeReport(point=x, radii=radii, deviations=tuple(deviations),
                       holes=holes, passed=passed)


def closedness_probe(f: StepLevelFunction, x, approach_sequences=100,
                     seed=0) -> ProbeVerdict:
    """Graph-closedness test for the adjusted normal cone at x.

    Walks sequences ``x_k -> x`` along random directions at the scales
    1e-1 to 1e-4, normalizes the cone generators along the way, and checks
    that every accumulation direction (one that drifts by at most 1e-3
    across the two finest scales) belongs to the cone at x.  A direction still drifting between those
    scales is linearly extrapolated to its limit and tested with a slack
    matched to the drift; a genuine jump has no drift and is flagged at
    the plain cone tolerance.
    Each approach point's cone is computed once, kept by the point's exact
    bytes (None outside the domain or in the argmin); errors are not kept.
    Each distinct (limit, slack) pair is decided once, kept by the limit's
    exact bytes.
    """
    x = np.asarray(x, dtype=float).ravel()
    _require_regular_point(f, x)
    cone_x = adjusted_normal_cone(f, x)
    rng = np.random.default_rng(seed)
    cones = {}  # approach point bytes -> its cone, None when skipped
    inside = {}  # (limit bytes, slack) -> cone_x.contains(limit, slack)
    violations = []
    checked = 0
    for _ in range(approach_sequences):
        direction = rng.normal(size=f.dim)
        direction /= np.linalg.norm(direction)
        tail = []
        for t in (1e-1, 1e-2, 1e-3, 1e-4):
            point = x + t * direction
            key = point.tobytes()
            if key not in cones:
                skip = math.isinf(f.evaluate(point)) or f.in_argmin(point)
                cones[key] = None if skip else adjusted_normal_cone(f, point)
            cone_k = cones[key]
            if cone_k is not None and not cone_k.is_zero:
                tail.append((t, cone_k.generators))
        if len(tail) < 2:
            continue
        (t_fin, finest), (t_sec, second) = tail[-1], tail[-2]
        for g in finest:
            drift_all = np.linalg.norm(second - g, axis=1)
            match = int(np.argmin(drift_all))
            drift = float(drift_all[match])
            if drift > 1e-3:
                continue  # no persistence: not an accumulation direction
            checked += 1
            limit = g + (g - second[match]) * (t_fin / (t_sec - t_fin))
            nrm = np.linalg.norm(limit)
            if nrm > 1e-12:
                limit = limit / nrm
            slack = CONE + 0.5 * drift
            key = limit.tobytes(), slack
            if key not in inside:
                inside[key] = cone_x.contains(limit, slack)
            if not inside[key]:
                violations.append({"direction": direction.copy(),
                                   "limit": limit.copy(), "drift": drift})
    return ProbeVerdict(passed=not violations, violations=violations,
                        checked=checked, kind="closedness")


def _regular_point_pool(f: StepLevelFunction, rng, target):
    """Domain points outside the argmin set, mixing random interior points
    with every level polytope's vertices (where facet activity lives)."""
    pool = []
    per = max(8, target // max(1, len(f.polytopes)))
    for poly in f.polytopes:
        for p in np.vstack([poly.sample(rng, per), poly.vertices()]):
            if not math.isinf(f.evaluate(p)) and not f.in_argmin(p):
                pool.append(p)
    out = []
    kept = np.empty((len(pool), f.dim))  # the rows of out
    for p in pool:
        # A coordinate gap above 1e-10 (1 + 1e-6) puts the computed norm
        # above 1e-10, so only the rows within that gap take the norm.
        recent = kept[max(0, len(out) - 40):len(out)]
        far = np.abs(recent - p).max(axis=1) > 1e-10 * (1 + 1e-6)
        if all(np.linalg.norm(p - q) > 1e-10 for q in recent[~far]):
            kept[len(out)] = p
            out.append(p)
    return out[: max(target, 1)]


def quasimonotonicity_probe(f: StepLevelFunction, pair_samples=1000, seed=0,
                            pool_size=160) -> ProbeVerdict:
    """Quasimonotonicity of the adjusted normal cone operator.

    For sampled ordered pairs (x, y): if some generator at x makes
    strictly positive product with ``y - x``, every generator at y must
    make a nonnegative one.  Valid quasiconvex instances must produce
    zero violations; corrupted families are expected to fail.  With fewer
    than two usable points (a single-level function has no point off its
    argmin set) there is no pair to test: the verdict passes with
    ``checked=0``.
    """
    rng = np.random.default_rng(seed)
    points = _regular_point_pool(f, rng, pool_size)
    cones = []
    for p in points:
        try:
            cone = adjusted_normal_cone(f, p)
        except (GeometryError, DomainError, ArgminError):
            cone = None
        cones.append(cone)
    usable = [(p, c) for p, c in zip(points, cones)
              if c is not None and not c.is_zero]
    if len(usable) < 2:
        return ProbeVerdict(passed=True, violations=[], checked=0,
                            kind="quasimonotonicity")
    violations = []
    checked = 0
    tol = CONE
    # One draw of every pair: the stream of one size-2 draw per pair.
    for i, j in rng.integers(0, len(usable), size=(pair_samples, 2)).tolist():
        if i == j:
            continue
        (px, cx), (py, cy) = usable[i], usable[j]
        gap = py - px
        checked += 1
        if (cx.generators @ gap).max() > tol:
            products = cy.generators @ gap
            if products.min() < -tol:
                g = cx.generators[int(np.argmax(cx.generators @ gap))]
                h = cy.generators[int(np.argmin(products))]
                violations.append({"x": px.copy(), "y": py.copy(),
                                   "x_gen": g.copy(), "y_gen": h.copy(),
                                   "forward": float((g @ gap)),
                                   "backward": float((h @ gap))})
    return ProbeVerdict(passed=not violations, violations=violations,
                        checked=checked, kind="quasimonotonicity")

"""Exact polyhedral geometry over R^n at desk scale (dim <= 4 for enumeration).

Everything here is built around two value types: :class:`Polytope`, a
bounded convex polyhedron carrying both an H-representation and, on
demand, a vertex list, and :class:`GeneratedCone`, a finitely generated
convex cone ``{sum t_k g_k : t_k >= 0}``.  All values are immutable after
construction and every operation is a pure function of its inputs, so
concurrent reads are safe.

The toolkit's four fixed slacks are the constants ``FEAS``, ``GEN``,
``CONE`` and ``ZERO`` below, imported by the other modules; a ``tol``
argument defaults to one of them.

Projections are solved as convex QPs by a primal active-set iteration
with a min-norm-point fallback; linear subproblems go through the dense
simplex kernel in :mod:`adjcone.lp`.  A caller that only compares
distances with a radius uses :meth:`Polytope.within_distance`, which
brackets every distance between two vectorized bounds and projects only
the rows whose bracket meets a band around the radius.

Axis boxes take closed forms.  An exact box (rows exactly signed axes)
answers ``contains`` and ``contains_many`` by the tightest bound per
side, the latter one column of the point array at a time; a row of
exact 0/+-1 entries makes ``a_i . y`` exactly ``+-y_j``, so the booleans
are those of the matrix product.  Boxes in 2-D to 7-D clip in
``project_many`` (and so in ``within_distance``) one column at a time
with scalar bounds and add up the squared differences from left to
right, which are the bits of ``np.clip`` with array bounds and of
``np.linalg.norm(axis=1)``.  Hull
construction for point sets uses scipy's convex hull (imported on first
use) after an affine-hull rank reduction, which keeps lower-dimensional
polytopes (segments, facets of cones) first class.

Vertex enumeration (:meth:`Polytope.vertices`) and polar extreme rays
(:func:`polar_extreme_rays`) share one blocked kernel: lexicographic row
subsets come in blocks of ``_ENUM_BLOCK``, each block runs one stacked
LAPACK call (``det`` and ``solve``, or ``svd``; LAPACK factors each
matrix on its own), and the candidates pass ``_satisfying`` (polar
subsets in 2-D to 4-D first pass the cofactor test ``_may_hold_ray``).
The accepted ones, in subset order, go through ``_dedupe_points``, the
one merge kernel (also of ``from_vertices`` and
:meth:`GeneratedCone.from_rays`).  Each helper's docstring argues its
bits, so every output is that of a one-subset-at-a-time loop.

The vertices are also the one source of face structure: their incidence
with the rows gives the implicit equalities, the irredundant facets
(:meth:`Polytope.reduced`) and every proper face with its active rows
(Ziegler, *Lectures on Polytopes*, ch. 2) without an LP, so
:func:`normal_cone_at` shares the enumeration bound dim <= 4.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lp import solve_lp

__all__ = [
    "FEAS",
    "GEN",
    "CONE",
    "ZERO",
    "GeometryError",
    "EmptyPolytopeError",
    "UnboundedPolytopeError",
    "ScaleBoundError",
    "ConeSectionError",
    "FaceDescriptor",
    "Polytope",
    "GeneratedCone",
    "weighted_minkowski",
    "grid_points",
    "polar_extreme_rays",
    "normal_cone_at",
    "polytope_distance",
]

FEAS = 1e-9  # membership slack
GEN = 1e-9  # minimum generator norm
CONE = 1e-6  # cone-equality slack
ZERO = 1e-3  # nonzero-base margin, above CONE

_ENUM_DIM_LIMIT = 4
_MINKOWSKI_LIMIT = 100_000
_MERGE_RADIUS = 1e-9
# Point pairs per distance block of ``_dedupe_points``.
_MERGE_BLOCK = 1 << 14
# Row subsets per stacked LAPACK call: bounds the temporaries of one block.
_ENUM_BLOCK = 2048
# Prefilter slack per unit of product magnitude; rounding is ~1e-16.
_PREFILTER_SLACK = 1e-7
# Polar-ray subsets: the cofactor prefilter trusts a subset whose
# cofactor norm exceeds this fraction of |M|_F^(n-1), and allows this
# slack per unit of row norm; ``polar_extreme_rays`` argues both.
_COFACTOR_CONDITION = 1e-4
_COFACTOR_SLACK = 1e-6
# Half-width of the band around the radius in which ``within_distance``
# projects instead of trusting its bounds, per unit of ``FEAS`` and of
# magnitude; the method docstring argues the value.
_DISTANCE_BAND = 1000.0
# Rounding of A^T y per unit of sum(y) in the check of ``Polytope``.
_CERTIFICATE_SLACK = 1e-12
# Points up to which ``project_many`` clips a 1-D box in Python floats.
# That costs about 4 µs and 0.25 µs a point against about 10.5 µs for
# ``np.clip`` and ``np.linalg.norm`` (2-vCPU x86-64, numpy 2.4), so numpy
# is the faster past about 24 points.  The 1-D calls of the benchmark
# take 2 points or 27 and more.
_FEW_POINTS = 16
# Points a grid may hold (``grid_points``, the ``adjusted-set`` mesh).
# The largest grids the commands build at their default meshes hold
# about 7e6 points (3-D ``adjusted-set`` on the benchmark's families);
# 4-D ``adjusted-set`` at its default mesh holds some 1e8 and stops here.
_GRID_POINTS = 10_000_000
# Row length from which numpy adds up a row pairwise (8 partial sums)
# instead of from left to right; ``_clip_columns`` needs shorter rows.
_PAIRWISE_SUM = 8


class GeometryError(RuntimeError):
    pass


class EmptyPolytopeError(GeometryError):
    """H-representation has no feasible point."""


class UnboundedPolytopeError(GeometryError):
    """H-representation has a recession direction."""


class ScaleBoundError(GeometryError):
    """Operation exceeds the declared desk-scale enumeration bounds."""


class ConeSectionError(GeometryError):
    """A generator does not point across the section hyperplane."""


def _as_point(x, dim):
    x = np.asarray(x, dtype=float).ravel()
    if x.size != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {x.size}")
    return x


def _row_norms(d):
    """Euclidean norms along the last axis of ``d``.

    The stacked product calls the same BLAS ``ddot`` as
    ``np.linalg.norm`` on one vector, so each norm has that call's bits;
    ``norm(axis=-1)`` sums the squares in another order and does not.
    """
    return np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]


def _dedupe_points(points, radius=_MERGE_RADIUS):
    """Greedy merge in row order: a row is kept unless it lies within
    ``radius`` of an earlier kept row.

    This is the loop ``keep p if all(norm(p - q) > radius for q in
    kept)``, bit for bit: every distance is ``_row_norms`` of ``p - q``,
    a NaN distance counts as close (``not (nan > radius)``), and only
    the rows with some earlier close row, kept or not, need the greedy
    pass.  Rows come in blocks that pair with at most ``_MERGE_BLOCK``
    earlier rows in all, which bounds the temporaries.
    """
    n = len(points)
    if n < 2:
        return points.copy()
    keep = np.ones(n, dtype=bool)
    order = np.arange(n)
    step = max(1, _MERGE_BLOCK // n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        close = ~(_row_norms(points[start:stop, None, :] - points[:stop]) > radius)
        close &= order[:stop] < order[start:stop, None]
        for k in np.flatnonzero(close.any(axis=1)):
            i = start + k
            keep[i] = not (close[k, :i] & keep[:i]).any()
    return points[keep]


def _affine_dim(points):
    """Affine dimension of a nonempty point set (rank tolerance 1e-9)."""
    if len(points) < 2:
        return 0
    return int(np.linalg.matrix_rank(points - points[0], tol=1e-9))


@functools.lru_cache(maxsize=32)
def _subset_table(m, k):
    """Every ``k``-subset of ``range(m)`` in lexicographic order, one per
    row of a read-only index array, built once per ``(m, k)`` in the
    smallest unsigned dtype that holds ``m``, so the cached tables stay
    small."""
    rows = math.comb(m, k)
    table = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m), k)),
        dtype=np.min_scalar_type(m), count=rows * k).reshape(rows, k)
    table.setflags(write=False)
    return table


def _subset_blocks(m, k):
    """The ``k``-subsets of ``range(m)`` in lexicographic order, as
    read-only index arrays of at most ``_ENUM_BLOCK`` rows."""
    table = _subset_table(m, k)
    for start in range(0, len(table), _ENUM_BLOCK):
        yield table[start:start + _ENUM_BLOCK]


def _satisfying(points, rows, bound, tol):
    """Mask of the rows ``p`` of ``points`` with
    ``np.all(rows @ p <= bound + tol)``, bit for bit.

    One matrix product first drops the rows that miss by a clear margin:
    it rounds differently from the per-point product, so each test gets
    a slack of ``_PREFILTER_SLACK`` times a bound on the magnitude of
    the products involved.  The rest are decided by the stacked product
    ``rows @ p[..., None]``, whose every item is the BLAS ``gemv`` call
    of ``rows @ p`` on one point.
    """
    scale = (1.0 + np.abs(bound).max()
             + np.abs(rows).max() * np.abs(points).sum(axis=1))
    mask = np.all(points @ rows.T
                  <= bound + tol + _PREFILTER_SLACK * scale[:, None], axis=1)
    live = np.flatnonzero(mask)
    mask[live] = np.all((rows @ points[live][..., None])[..., 0] <= bound + tol,
                        axis=1)
    return mask


def _min_norm_point(points):
    """The point of ``conv(points)`` nearest the origin (Wolfe, *Math.
    Programming* 11, 1976).  Major cycles add the point of least ``x . p``
    to a corral of affinely independent points until none has ``x . p <
    x . x - tol |x|``, ``tol = 1e-12 max|p|``, so ``|x| <= d(0, conv) +
    tol``; minor cycles move the weights toward the corral's affine
    minimizer, dropping points whose weight reaches zero.  Each major cycle
    lowers ``|x|``, so no corral recurs; one that does not ends the search.
    """
    tol = 1e-12 * _row_norms(points).max()
    s, lam, x = [0], np.ones(1), points[0]
    while True:
        dots = points @ x
        j = int(np.argmin(dots))
        if x @ x - dots[j] <= tol * math.sqrt(x @ x) or j in s:
            return x
        s, lam = s + [j], np.append(lam, 0.0)
        while True:
            q = points[s]
            beta = np.linalg.lstsq((q[1:] - q[0]).T, -q[0], rcond=None)[0]
            alpha = np.concatenate([[1.0 - beta.sum()], beta])
            if np.all(alpha >= 0):
                break
            out = np.flatnonzero(alpha < 0)
            ratio = lam[out] / (lam[out] - alpha[out])
            lam = lam + ratio.min() * (alpha - lam)
            lam[out[np.argmin(ratio)]] = 0.0
            s, lam = [i for i, w in zip(s, lam) if w > 0], lam[lam > 0]
        y = alpha @ q
        if y @ y >= x @ x:
            return x
        x, lam = y, alpha


@dataclass(frozen=True)
class FaceDescriptor:
    """A proper closed face, identified by its active halfspace indices."""

    active: tuple
    vertex_ids: tuple
    dim: int


_ZERO_ROW = 1e-14  # rows of a smaller norm are zero rows


def _clip_column(values, low, high):
    """``np.clip`` of the column ``values`` (a list) to ``[low, high]``
    and the distances ``np.linalg.norm(axis=1)`` gives, as arrays.  NaN
    stays NaN, and a tie such as ``-0.0`` against ``0.0`` keeps the value,
    as numpy's clip does on one column."""
    proj, dist = [], []
    for v in values:
        c = v if v >= low or v != v else low
        c = c if c <= high or c != c else high
        proj.append(c)
        dist.append(math.sqrt((v - c) * (v - c)))
    return np.array(proj)[:, None], np.array(dist)


def _clip_columns(pts, lo, hi):
    """``np.clip(pts, lo, hi)`` and ``np.linalg.norm(pts - proj, axis=1)``
    for two or more columns and the bound lists ``lo`` and ``hi``, one
    column at a time; ``len(lo) < _PAIRWISE_SUM``.

    With array bounds ``np.clip`` is ``min(max(x, lo), hi)`` and takes
    the bound on a tie such as ``-0.0`` against ``0.0``, as
    ``np.maximum`` and ``np.minimum`` with a scalar bound do; NaN stays
    NaN in both.  The norm squares each entry and adds up each row from
    left to right, as the running ``total`` does, then takes ``np.sqrt``.
    Only a row with two NaNs of different payloads may keep the other
    payload: numpy's loops pick between two NaN operands by their own
    order.
    """
    proj = np.empty_like(pts)
    total = None
    for c, p, low, high in zip(pts.T, proj.T, lo, hi):
        np.maximum(c, low, out=p)
        np.minimum(p, high, out=p)
        d = c - p
        d *= d
        total = d if total is None else np.add(total, d, out=total)
    return proj, np.sqrt(total, out=total)


def _unit_offsets(b, norms):
    """The offsets of ``_unit_halfspaces``: each nonzero row's over its
    norm.  A zero row with a negative offset makes the system empty."""
    keep = norms > _ZERO_ROW
    if keep.all():
        return b / norms
    if np.any(b[~keep] < -FEAS):
        raise EmptyPolytopeError("zero row with negative offset")
    return b[keep] / norms[keep]


def _unit_halfspaces(a, b, norms):
    """The system ``a x <= b`` with unit normals, given the row norms of
    ``a``: zero rows are dropped, and a zero row with a negative offset
    makes the system empty."""
    b = _unit_offsets(b, norms)
    if b.size < norms.size:
        keep = norms > _ZERO_ROW
        a, norms = a[keep], norms[keep]
        if a.shape[0] == 0:
            raise UnboundedPolytopeError("no effective halfspaces")
    return a / norms[:, None], b


def _axis_layout(rows):
    """``(layout, exact)`` for the unit rows ``rows`` (``a.tolist()``):
    ``layout`` is ``(axis, upper)`` per row when every row is a signed
    axis within 1e-12, which enables closed-form fast paths, else None;
    ``exact`` says every entry is exactly 0.0 or +-1.0."""
    layout, exact = [], True
    for row in rows:
        nz = [k for k, v in enumerate(row) if abs(v) > 1e-12]
        if len(nz) != 1:
            return None, False
        j = nz[0]
        if abs(abs(row[j]) - 1.0) > 1e-12:
            return None, False
        layout.append((j, row[j] > 0))
        exact = exact and abs(row[j]) == 1.0 and row.count(0.0) == len(row) - 1
    return layout, exact


def _axis_box(layout, b, dim):
    """``(lo, hi)`` lists of the axis rows ``layout`` with offsets ``b``
    (``b.tolist()``); ``min`` and ``max`` keep the earlier of two equal
    signed zeros.  Raises when a coordinate lacks a bound or the bounds
    cross."""
    lo = [-math.inf] * dim
    hi = [math.inf] * dim
    for (j, upper), off in zip(layout, b):
        if upper:
            hi[j] = min(hi[j], off)
        else:
            lo[j] = max(lo[j], -off)
    if any(map(math.isinf, lo + hi)):
        raise UnboundedPolytopeError("box is unbounded in a coordinate")
    if any(h < l - FEAS for l, h in zip(lo, hi)):
        raise EmptyPolytopeError("box bounds cross")
    return lo, hi


class Polytope:
    """Nonempty bounded polyhedron ``{x : a_i . x <= b_i}``.

    Rows are normalized to unit normals on construction.  Construction
    rejects non-finite data and, unless the caller vouches for them,
    runs the two certificates, in this order: ``_check_feasible`` (one
    LP), then ``_check_bounded``.  Boundedness holds iff rank A = n and
    some y >= 1 has A^T y = 0 (Stiemke's alternative; Schrijver, *Theory
    of Linear and Integer Programming*, ch. 7).  One LP finds y
    (``_bounded_certificate``); its phase-1 slack is absolute, so y is
    checked: a unit d with A d <= 0 has sigma_min(A) <= |A d| <=
    |d . A^T y| / min(y), which ``|A^T y| + _CERTIFICATE_SLACK * sum(y) <
    sigma_min(A) * min(y)`` rules out.  Else the 2n coordinate LPs of the
    box decide at once; otherwise ``bounding_box`` solves them on first
    use.  A caller that certifies a family of polytopes at once (see
    ``StepLevelFunction.from_uncertified``) builds them with both checks
    off and calls the methods itself.
    """

    def __init__(self, a, b, vertices=None, *,
                 check_feasible=True, check_bounded=True):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        if not np.isfinite(a).all():
            raise ValueError("Polytope: a has a non-finite entry")
        if not np.isfinite(b).all():
            raise ValueError("Polytope: b has a non-finite entry")
        if a.shape[0] != b.size:
            raise ValueError("halfspace matrix and offset vector disagree")
        if a.shape[0] == 0:
            raise ValueError("a polytope needs at least one halfspace")
        a, b = _unit_halfspaces(a, b, np.linalg.norm(a, axis=1))
        layout, exact = _axis_layout(a.tolist())
        box = None if layout is None else _axis_box(layout, b.tolist(), a.shape[1])
        self._start(a, b, box, exact)
        if check_feasible:
            self._check_feasible()
        if check_bounded:
            self._check_bounded()

        if vertices is not None:
            verts = np.atleast_2d(np.asarray(vertices, dtype=float))
            if verts.shape[1] != self.dim:
                raise ValueError("cached vertices have the wrong dimension")
            slack = self._a @ verts.T - self._b[:, None]
            if slack.size and slack.max() > FEAS:
                raise ValueError("a cached vertex violates the halfspaces")
            self._vertices = verts
            self._vertices.setflags(write=False)

    def _start(self, a, b, box, exact):
        """Fields of the unit system ``a x <= b`` with the ``_axis_box``
        of its rows (None unless all are axis rows) and ``_axis_layout``'s
        ``exact``."""
        a.setflags(write=False)
        b.setflags(write=False)
        self._a, self._b = a, b
        self.dim = a.shape[1]
        self._vertices = self._cheb = self._reduced = self._exits = None
        self._box_bounds = self._exact_box = None
        if box is not None:
            lo, hi = box
            self._box_bounds = np.array(lo), np.array(hi)
            if exact:
                self._exact_box = hi, [-v for v in lo]
        self._bbox = self._box_bounds

    def _check_feasible(self):
        """The feasibility LP of a non-box system (``_axis_box`` has
        checked a box): raises ``EmptyPolytopeError`` when it has no
        point."""
        if self._box_bounds is None:
            probe = solve_lp(np.zeros(self.dim), a_ub=self._a, b_ub=self._b)
            if probe.status == "infeasible":
                raise EmptyPolytopeError("halfspace system is infeasible")

    def _bounded_certificate(self):
        """Whether the one-LP certificate of the class docstring proves
        the system bounded; a box needs none."""
        if self._box_bounds is not None:
            return True
        m = self.num_halfspaces
        y = solve_lp(np.zeros(m), a_eq=self._a.T, b_eq=np.zeros(self.dim),
                     bounds=[(1.0, None)] * m).x
        sigma = np.linalg.svd(self._a, compute_uv=False)[-1]
        return y is not None and (np.linalg.norm(self._a.T @ y)
                                  + _CERTIFICATE_SLACK * y.sum()
                                  < sigma * y.min())

    def _check_bounded(self):
        """Boundedness: the certificate, else the 2n coordinate LPs of the
        box, which raise ``UnboundedPolytopeError`` when it is unbounded."""
        if not self._bounded_certificate():
            self._bbox = self._compute_bbox()

    def nests_in(self, outer):
        """Exact containment by rows: whether every unit row
        ``a . x <= beta`` of ``outer`` is also a row ``a . x <= b`` of
        this polytope, entry for entry, with ``b <= beta``.  Then every
        point of this polytope lies in ``outer``.  False settles nothing."""
        if outer.dim != self.dim:
            return False
        if self._a.shape == outer._a.shape and (self._a == outer._a).all():
            return bool((self._b <= outer._b).all())
        tightest = {}
        for row, off in zip(map(tuple, self._a.tolist()), self._b.tolist()):
            tightest[row] = min(off, tightest.get(row, math.inf))
        return all(tightest.get(row, math.inf) <= off for row, off in
                   zip(map(tuple, outer._a.tolist()), outer._b.tolist()))

    @classmethod
    def _from_unit(cls, a, b, box, exact):
        """``cls(a, b, check_bounded=False)`` from the unit system and axis
        data (see ``_start``) it would compute, without normalising."""
        self = cls.__new__(cls)
        self._start(a, b, box, exact)
        self._check_feasible()
        return self

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_box(cls, lo, hi):
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        n = lo.size
        a = np.vstack([np.eye(n), -np.eye(n)])
        b = np.concatenate([hi, -lo])
        return cls(a, b)

    @classmethod
    def from_vertices(cls, points):
        """Convex hull of a finite point set, degenerate sets included."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            raise EmptyPolytopeError("no points given")
        n = pts.shape[1]
        pts = _dedupe_points(pts)
        center = pts.mean(axis=0)
        spread = pts - center
        if pts.shape[0] == 1:
            rank = 0
            basis = np.zeros((0, n))
            complement = np.eye(n)
        else:
            _, sv, vt = np.linalg.svd(spread, full_matrices=pts.shape[0] < n)
            cutoff = max(sv[0] * 1e-10, 1e-12) if sv.size else 1e-12
            rank = int(np.sum(sv > cutoff))
            basis = vt[:rank]
            complement = vt[rank:]

        rows = []
        offsets = []
        hull_pts = pts
        if rank == 1:
            coords = spread @ basis[0]
            rows += [basis[0], -basis[0]]
            offsets += [basis[0] @ center + coords.max(),
                        -(basis[0] @ center + coords.min())]
            hull_pts = np.array([center + coords.min() * basis[0],
                                 center + coords.max() * basis[0]])
        elif rank >= 2:
            local = spread @ basis.T
            from scipy.spatial import ConvexHull, QhullError
            try:
                hull = ConvexHull(local)
            except QhullError as exc:  # pragma: no cover - rank guard should prevent
                raise GeometryError(f"hull construction failed: {exc}") from exc
            for eq in hull.equations:
                normal = eq[:rank] @ basis
                rows.append(normal)
                offsets.append(-eq[rank] + normal @ center)
            hull_pts = pts[hull.vertices]
        for w in complement:
            rows += [w, -w]
            offsets += [w @ center, -(w @ center)]
        return cls(np.array(rows), np.array(offsets), vertices=hull_pts,
                   check_feasible=False, check_bounded=False)

    def _compute_bbox(self):
        lo, hi = np.empty(self.dim), np.empty(self.dim)
        for j, c in enumerate(np.eye(self.dim)):
            low = solve_lp(c, a_ub=self._a, b_ub=self._b)
            if low.status == "unbounded":
                raise UnboundedPolytopeError(f"unbounded below in coordinate {j}")
            if low.status == "infeasible":
                raise EmptyPolytopeError("halfspace system is infeasible")
            high = solve_lp(-c, a_ub=self._a, b_ub=self._b)
            if high.status == "unbounded":
                raise UnboundedPolytopeError(f"unbounded above in coordinate {j}")
            lo[j] = low.value
            hi[j] = -high.value
        return lo, hi

    # -- basic queries ---------------------------------------------------------

    @property
    def halfspaces(self):
        return self._a, self._b

    @property
    def num_halfspaces(self):
        return self._a.shape[0]

    def contains(self, x, tol=None):
        """Whether ``a @ x <= b + slack`` holds in every row.

        On an exact box (every row exactly a signed axis) ``a_i @ x`` is
        exactly ``+-x_j``, so the tightest row on each side decides, as
        rounding of ``b + slack`` is monotone; ``nlo = -lo`` is that
        row's offset.  A non-finite ``x_k`` makes the other rows' products
        NaN and fails both closed-form tests at axis k, unless a bound
        plus slack overflows: slack above 1 takes the matrix product.
        """
        x = _as_point(x, self.dim)
        slack = tol if tol is not None else FEAS
        if self._exact_box is not None and slack <= 1.0:
            hi, nlo = self._exact_box
            return all(v <= h + slack and -v <= l + slack
                       for v, h, l in zip(x.tolist(), hi, nlo))
        return bool(np.all(self._a @ x <= self._b + slack))

    def contains_many(self, points, tol=None):
        """:meth:`contains` of every row of ``points``, as a boolean array.

        On an exact box, under the slack guard of ``contains``, each
        column ``c = points[:, k]`` meets its tightest bound per side:
        ``c <= hi_k + slack`` and ``c >= -(nlo_k + slack)``, which is
        ``-c <= nlo_k + slack`` as negation is exact.  The ``contains``
        argument makes these the booleans of the matrix product row by
        row.  Other polytopes, and points of another dimension, take the
        product ``points @ a.T <= b + slack``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        slack = tol if tol is not None else FEAS
        if (self._exact_box is not None and slack <= 1.0
                and pts.shape[1] == self.dim):
            hi, nlo = self._exact_box
            inside = pts[:, 0] <= hi[0] + slack
            for k, c in enumerate(pts.T):
                if k:
                    inside &= c <= hi[k] + slack
                inside &= c >= -(nlo[k] + slack)
            return inside
        return np.all(pts @ self._a.T <= self._b + slack, axis=1)

    def bounding_box(self):
        if self._bbox is None:
            self._bbox = self._compute_bbox()
        lo, hi = self._bbox
        return lo.copy(), hi.copy()

    def diameter(self):
        verts = self.vertices()
        if len(verts) == 1:
            return 0.0
        diff = verts[:, None, :] - verts[None, :, :]
        return float(np.sqrt((diff ** 2).sum(-1)).max())

    def chebyshev_center(self):
        """Deepest point: maximizes the radius of an inscribed ball."""
        if self._cheb is None:
            a_ext = np.hstack([self._a, np.ones((self.num_halfspaces, 1))])
            c = np.zeros(self.dim + 1)
            c[-1] = -1.0
            bounds = [(None, None)] * self.dim + [(0.0, None)]
            sol = solve_lp(c, a_ub=a_ext, b_ub=self._b, bounds=bounds)
            if not sol.optimal:
                raise GeometryError("Chebyshev LP failed")
            self._cheb = (sol.x[:-1], float(sol.x[-1]))
        center, radius = self._cheb
        return center.copy(), radius

    # -- projection ------------------------------------------------------------

    def project(self, x):
        """Euclidean projection; returns ``(point, distance)``.

        Boxes clip and inner points return themselves; otherwise the
        active-set iteration runs.  Where it gives up (seen on flat
        polytopes and point hulls, mostly from 10 to 100 away), the point
        is ``x + _min_norm_point(V - x)`` over the vertices ``V``; it must
        pass ``contains(p, 10 * FEAS)``, its distance exceeds ``d(x, P)``
        by at most ``1e-12 (d(x, P) + diam P)``, and above dim 4 it
        raises the ``ScaleBoundError`` of :meth:`vertices`.
        """
        x = _as_point(x, self.dim)
        if self._box_bounds is not None:
            lo, hi = self._box_bounds
            p = np.clip(x, lo, hi)
            return p, float(np.linalg.norm(x - p))
        if self.contains(x):
            return x.copy(), 0.0
        p = self._project_active_set(x)
        if p is None:
            p = x + _min_norm_point(self._vertex_list() - x)
            if not self.contains(p, 10 * FEAS):
                raise GeometryError("min-norm point left the polytope")
        return p, float(np.linalg.norm(x - p))

    def project_many(self, points):
        """``(projections, distances)`` of the rows of ``points``, with the
        bits of ``np.clip(points, lo, hi)`` and ``np.linalg.norm(points -
        proj, axis=1)`` on a box.

        A 1-D box clips up to ``_FEW_POINTS`` points in Python floats.  A
        box in 2-D to 7-D goes column by column (``_clip_columns``); the
        other calls take ``np.clip`` and the norm themselves.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._box_bounds is not None:
            lo, hi = self._box_bounds
            if pts.shape[1] == lo.size == 1 and len(pts) <= _FEW_POINTS:
                return _clip_column(pts[:, 0].tolist(), float(lo[0]),
                                    float(hi[0]))
            if pts.shape[1] == lo.size and 1 < lo.size < _PAIRWISE_SUM:
                return _clip_columns(pts, lo.tolist(), hi.tolist())
            proj = np.clip(pts, lo, hi)
            return proj, np.linalg.norm(pts - proj, axis=1)
        proj = np.empty_like(pts)
        dist = np.empty(pts.shape[0])
        for i, x in enumerate(pts):
            proj[i], dist[i] = self.project(x)
        return proj, dist

    def within_distance(self, points, radius):
        """``project_many(points)[1] <= radius``, bit for bit, projecting
        only the rows whose distance lies near ``radius``.

        Boxes compare the distances of :meth:`project_many` (column by
        column from 2-D on) with ``radius``.  Otherwise two exact bounds
        bracket ``d(y, P)``.  The rows are unit normals, so
        ``lower = max_i(a_i . y - b_i) <= d(y, P)``.  The segment from the
        Chebyshev center ``c`` to ``y`` leaves P at ``z = c + t (y - c)``,
        with ``t`` from the ratio test, so ``d(y, P) <= |y - z| = upper``.
        A row is decided outside the band ``radius +/- band``, with
        ``band = _DISTANCE_BAND * FEAS * (1 + max|y_k| + |radius|)``; only
        the rows in the band go through :meth:`project`.

        The band holds the error of the scalar path.  Its point ``p``
        passes ``contains(p, 10 * FEAS)``, so for the most violated row
        ``|y - p| >= a_i . (y - p) >= lower - 10 * FEAS``: a row with
        ``lower > radius + band`` projects farther than ``radius``.  A row
        within ``FEAS`` of P projects to 0.  An accepted active-set point
        (multipliers ``>= -1e-10``) is the projection onto working
        halfspaces that contain P, and the min-norm fallback is at most
        ``1e-12 (d(y, P) + diam P)`` farther: at desk scale both exceed
        ``d(y, P)`` by far less than the band, so a row with ``upper <
        radius - band`` projects within ``radius``.  With the default
        ``FEAS = 1e-9`` the band is ``1e-6`` times the magnitude, a hundred
        times ``10 * FEAS`` and far above the rounding of the bounds (about
        ``1e-16`` times the magnitude).  A wider band only sends more rows
        to ``project``.  The centre and its offsets ``b - a . c`` are kept
        per polytope.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._box_bounds is not None:
            return self.project_many(pts)[1] <= radius
        a, b = self._a, self._b
        if self._exits is None:
            center, _ = self.chebyshev_center()
            self._exits = center, b - a @ center
        center, room = self._exits
        lower = (pts @ a.T - b).max(axis=1)
        step = pts - center
        rise = step @ a.T
        exit_at = np.divide(room, rise, out=np.full(rise.shape, np.inf),
                            where=rise > 0)
        t = np.clip(exit_at.min(axis=1), 0.0, 1.0)
        upper = (1.0 - t) * np.linalg.norm(step, axis=1)
        band = (_DISTANCE_BAND * FEAS
                * (1.0 + np.abs(pts).max(axis=1) + abs(radius)))
        within = upper < radius - band
        for i in np.flatnonzero(~within & (lower <= radius + band)):
            within[i] = self.project(pts[i])[1] <= radius
        return within

    def _project_active_set(self, x):
        a, b = self._a, self._b
        m = self.num_halfspaces
        y, _ = self.chebyshev_center()
        working: list[int] = []
        for _ in range(max(10 * m, 50)):
            if working:
                aw = a[working]
                gram = aw @ aw.T
                rhs = aw @ x - b[working]
                lam = np.linalg.lstsq(gram, rhs, rcond=None)[0]
                target = x - aw.T @ lam
            else:
                lam = np.zeros(0)
                target = x
            step = target - y
            if np.linalg.norm(step) <= 1e-12:
                if lam.size == 0 or np.all(lam >= -1e-10):
                    if self.contains(target, 10 * FEAS):
                        return target
                    return None
                drop = min(working[k] for k in range(len(working))
                           if lam[k] < -1e-10)
                working.remove(drop)
                continue
            a_dot_y = a @ y
            a_dot_step = a @ step
            alpha = 1.0
            hit = -1
            for i in range(m):
                if i in working or a_dot_step[i] <= 1e-13:
                    continue
                t = (b[i] - a_dot_y[i]) / a_dot_step[i]
                if t < alpha - 1e-13 or (hit >= 0 and abs(t - alpha) <= 1e-13 and i < hit):
                    alpha = max(t, 0.0)
                    hit = i
            y = y + alpha * step
            if hit >= 0 and alpha < 1.0 - 1e-13:
                working.append(hit)
        return None

    # -- enumeration -----------------------------------------------------------

    def vertices(self):
        """Irredundant vertex list via combinatorial basis enumeration.

        Every ``dim``-row subset with ``|det| >= 1e-10`` gives a candidate
        ``solve(rows, offsets)``, kept if it satisfies all halfspaces
        within ``FEAS``; near-duplicates merge in subset order.  Subsets
        are solved a block at a time (see the module docstring), and the
        result is bit for bit that of the one-subset-at-a-time loop.
        """
        self._vertices = self._vertex_list()
        return self._vertices

    def _vertex_list(self):
        """:meth:`vertices` without filling the cache (serialized as "V")."""
        if self._vertices is not None:
            return self._vertices
        if self.dim > _ENUM_DIM_LIMIT:
            raise ScaleBoundError(
                f"vertex enumeration limited to dim <= {_ENUM_DIM_LIMIT}")
        if self._box_bounds is not None:
            lo, hi = self._box_bounds
            corners = np.array(list(itertools.product(*zip(lo, hi))))
            # Two corners differ by fl(hi_j - lo_j) in some axis j, and
            # their computed distance is at least that less 1e-6 of it.
            wide = np.min(hi - lo) > _MERGE_RADIUS * (1 + 1e-6)
            verts = corners if wide else _dedupe_points(corners)
        else:
            a, b = self._a, self._b
            m = self.num_halfspaces
            found = [np.zeros((0, self.dim))]
            for idx in _subset_blocks(m, self.dim):
                sub = a[idx]
                basis = ~(np.abs(np.linalg.det(sub)) < 1e-10)
                cand = np.linalg.solve(sub[basis], b[idx[basis]][..., None])[..., 0]
                found.append(cand[_satisfying(cand, a, b, FEAS)])
            found = np.concatenate(found)
            if not len(found):
                raise GeometryError("vertex enumeration found nothing")
            verts = _dedupe_points(found)
        verts.setflags(write=False)
        return verts

    def sample(self, rng, count):
        """Random points as Dirichlet-weighted vertex mixtures."""
        verts = self.vertices()
        weights = rng.dirichlet(np.ones(len(verts)), size=count)
        return weights @ verts

    def _incidence(self):
        """``on[i, k]``: vertex ``k`` lies on row ``i`` within ``FEAS``.
        The one source of face structure."""
        return self._a @ self.vertices().T >= self._b[:, None] - FEAS

    def reduced(self):
        """Irredundant facet rows plus implicit equality rows.

        Returns ``(facet_idx, equality_idx)`` as indices into the stored
        (normalized) halfspace rows, read off the vertex incidence.  Of
        parallel rows (normals within 1e-9) only the tightest stays, ties
        within 1e-12 going to the smaller index.  A remaining row active
        on every vertex is an implicit equality; one whose active vertices
        span affine dimension ``dim(P) - 1`` is a facet, and of several
        rows cutting one facet the last is kept.
        """
        if self._reduced is not None:
            return self._reduced
        a, b = self._a, self._b
        verts = self.vertices()
        on = self._incidence()
        diff = a[:, None, :] - a[None, :, :]
        parallel = _row_norms(diff) <= 1e-9
        tighter = (b[None, :] < b[:, None] - 1e-12) | (
            (np.abs(b[None, :] - b[:, None]) <= 1e-12)
            & np.tri(b.size, k=-1, dtype=bool))
        alive = ~np.any(parallel & tighter, axis=1)
        equal = alive & on.all(axis=1)
        last = {on[i].tobytes(): i
                for i in np.flatnonzero(alive & ~equal & on.any(axis=1))}
        facet_dim = _affine_dim(verts) - 1
        facets = sorted(int(i) for i in last.values()
                        if _affine_dim(verts[on[i]]) == facet_dim)
        self._reduced = (tuple(facets), tuple(np.flatnonzero(equal).tolist()))
        return self._reduced

    def proper_faces(self):
        """All proper closed faces as active halfspace index sets.

        Faces are generated as the closure under intersection of the
        facet vertex sets, which yields facets, ridges, down to vertices;
        the improper face (the polytope itself) is excluded.  A face's
        active rows are the rows whose incidence covers its vertices.
        """
        facet_idx, _ = self.reduced()
        verts = self.vertices()
        on = self._incidence()
        facet_sets = {frozenset(np.flatnonzero(on[i]).tolist()) for i in facet_idx}
        closure, frontier = set(facet_sets), set(facet_sets)
        while frontier:
            frontier = {f & g for f in frontier for g in facet_sets if f & g} - closure
            closure |= frontier

        faces = []
        for vset in closure:
            ids = sorted(vset)
            faces.append(FaceDescriptor(
                active=tuple(np.flatnonzero(on[:, ids].all(axis=1)).tolist()),
                vertex_ids=tuple(ids), dim=_affine_dim(verts[ids])))
        faces.sort(key=lambda f: (-len(f.vertex_ids), f.vertex_ids))
        return faces

    def __repr__(self):
        return f"Polytope(dim={self.dim}, halfspaces={self.num_halfspaces})"


class GeneratedCone:
    """Finitely generated closed convex cone ``{sum t_k g_k : t_k >= 0}``.

    Membership is decided with ``t >= 0``, i.e. the closed variant of the
    cone definition; an empty generator list is the zero cone.
    """

    def __init__(self, generators, dim=None):
        gens = np.atleast_2d(np.asarray(generators, dtype=float))
        if gens.size == 0:
            if dim is None:
                raise ValueError("zero cone needs an explicit dimension")
            gens = np.zeros((0, dim))
        if dim is not None and gens.shape[1] != dim:
            raise ValueError("generator dimension mismatch")
        norms = np.linalg.norm(gens, axis=1)
        if gens.shape[0] and norms.min() < GEN:
            raise ValueError("generator below the minimum norm tolerance")
        self.generators = gens
        self.generators.setflags(write=False)
        self.dim = gens.shape[1]

    @classmethod
    def from_rays(cls, rays, dim=None):
        """Unit-normalize, drop near-zero rays, merge duplicates.

        Norms are ``_row_norms`` and the merge is ``_dedupe_points``, so
        the generators are those of a per-ray loop with
        ``np.linalg.norm``, bit for bit."""
        rays = np.atleast_2d(np.asarray(rays, dtype=float))
        if rays.size == 0:
            return cls(np.zeros((0, dim)), dim=dim)
        norms = _row_norms(rays)
        live = ~(norms < GEN)
        kept = _dedupe_points(rays[live] / norms[live, None])
        dim = dim if dim is not None else rays.shape[1]
        return cls(kept if len(kept) else np.zeros((0, dim)),
                   dim=dim)

    @property
    def is_zero(self):
        return self.generators.shape[0] == 0

    def contains(self, v, tol=None):
        """Nonnegative-combination membership, decided by a small LP."""
        v = _as_point(v, self.dim)
        slack = tol if tol is not None else CONE
        vnorm = np.linalg.norm(v)
        if vnorm <= slack:
            return True
        if self.is_zero:
            return False
        k = self.generators.shape[0]
        n = self.dim
        # variables: t (k), s (1); minimize s with |G^T t - v| <= s
        gt = self.generators.T
        a_ub = np.zeros((2 * n, k + 1))
        a_ub[:n, :k] = gt
        a_ub[n:, :k] = -gt
        a_ub[:, k] = -1.0
        b_ub = np.concatenate([v, -v])
        c = np.zeros(k + 1)
        c[k] = 1.0
        bounds = [(0.0, None)] * (k + 1)
        sol = solve_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
        if not sol.optimal:
            raise GeometryError("cone membership LP failed")
        return sol.value <= slack * max(1.0, vnorm)

    def section(self, direction, offset):
        """Slice by the hyperplane ``{v : v . direction = offset}``.

        Every generator must satisfy ``g . direction > 0``; the section is
        the polytope with vertices ``offset * g / (g . direction)``.
        """
        direction = _as_point(direction, self.dim)
        if offset <= 0:
            raise ValueError("section offset must be positive")
        if self.is_zero:
            raise ConeSectionError("the zero cone has no section")
        dots = self.generators @ direction
        if np.any(dots <= 1e-12):
            bad = int(np.argmin(dots))
            raise ConeSectionError(
                f"generator {bad} does not point across the hyperplane "
                f"(dot={dots[bad]:.3e})")
        pts = offset * self.generators / dots[:, None]
        return Polytope.from_vertices(pts)

    def minimal(self):
        """Prune generators expressible by the remaining ones."""
        if self.generators.shape[0] <= 1:
            return self
        kept = list(range(self.generators.shape[0]))
        i = 0
        while i < len(kept):
            others = [k for k in kept if k != kept[i]]
            if others:
                sub = GeneratedCone(self.generators[others], dim=self.dim)
                if sub.contains(self.generators[kept[i]], tol=1e-9):
                    kept.pop(i)
                    continue
            i += 1
        return GeneratedCone(self.generators[kept], dim=self.dim)

    def equals(self, other, tol=None):
        """Mutual containment of generator sets."""
        slack = tol if tol is not None else CONE
        mine = all(other.contains(g, slack) for g in self.generators)
        theirs = all(self.contains(g, slack) for g in other.generators)
        return mine and theirs

    def __repr__(self):
        return f"GeneratedCone(dim={self.dim}, rays={self.generators.shape[0]})"


def weighted_minkowski(terms):
    """Weighted Minkowski sum ``{sum w_i q_i : q_i in Q_i}``.

    Weights must be nonnegative and sum to one within 1e-12.  Computed as
    the hull of all sums of per-term vertex selections; the product of
    vertex counts is capped at the desk-scale bound.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("empty Minkowski combination")
    weights = np.array([w for w, _ in terms], dtype=float)
    if np.any(weights < 0):
        raise ValueError("Minkowski weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
    dims = {q.dim for _, q in terms}
    if len(dims) != 1:
        raise ValueError("Minkowski terms must share a dimension")
    total = 1
    for _, q in terms:
        total *= len(q.vertices())
        if total > _MINKOWSKI_LIMIT:
            raise ScaleBoundError("vertex-product bound exceeded")
    dim = dims.pop()
    sums = np.zeros((1, dim))
    for w, q in terms:
        verts = w * q.vertices()
        sums = (sums[:, None, :] + verts[None, :, :]).reshape(-1, dim)
    return Polytope.from_vertices(sums)


def _check_grid(lengths, mesh):
    """Raise ``ScaleBoundError`` when axes of ``lengths`` points (an
    infinite length stands for one past any bound) make a grid of more
    than ``_GRID_POINTS``, before any of it is built."""
    if not math.prod(map(float, lengths)) <= _GRID_POINTS:
        raise ScaleBoundError(
            f"a grid of mesh {mesh!r} would hold more than "
            f"{_GRID_POINTS:,} points; use a coarser --mesh")


def grid_points(polytope, mesh):
    """Points of a bounding-box lattice with spacing at most ``mesh`` that
    lie in the polytope; each axis keeps both box ends.  A lattice past
    ``_GRID_POINTS`` raises ``ScaleBoundError``."""
    lo, hi = polytope.bounding_box()
    spans = [(h - l) / mesh + 1e-9 for l, h in zip(lo.tolist(), hi.tolist())]
    counts = [max(2, math.floor(s) + 1) if math.isfinite(s) else s
              for s in spans]
    _check_grid(counts, mesh)
    axes = [np.linspace(lo[k], hi[k], count) for k, count in enumerate(counts)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, polytope.dim)
    return pts.compress(polytope.contains_many(pts), axis=0)


def _cofactors(cols, idx):
    """Generalized cross products of row subsets, as columns.

    ``cols`` holds the rows of an ``m x n`` matrix as columns, ``n`` in
    2..4, and ``idx`` the ``n - 1`` row indices of each subset.  Column
    ``j`` of the result is orthogonal to every row of subset ``j``, and
    its norm is the ``(n-1)``-volume they span, zero exactly when they
    are dependent.  The 2x2 minors of the first two rows are expanded
    along the third in 4-D.
    """
    a = cols[:, idx[:, 0]]
    if len(cols) == 2:
        return np.stack([a[1], -a[0]])
    b = cols[:, idx[:, 1]]

    def minor(i, j):
        return a[i] * b[j] - a[j] * b[i]

    if len(cols) == 3:
        return np.stack([minor(1, 2), -minor(0, 2), minor(0, 1)])
    c = cols[:, idx[:, 2]]
    p01, p02, p03 = minor(0, 1), minor(0, 2), minor(0, 3)
    p12, p13, p23 = minor(1, 2), minor(1, 3), minor(2, 3)
    return np.stack([c[1] * p23 - c[2] * p13 + c[3] * p12,
                     c[2] * p03 - c[0] * p23 - c[3] * p02,
                     c[0] * p13 - c[1] * p03 + c[3] * p01,
                     c[1] * p02 - c[0] * p12 - c[2] * p01])


def _may_hold_ray(rows, idx, tol):
    """Subsets ``idx`` of ``rows`` whose null vector may give a ray.

    The closed-form cofactor ``c`` of each subset is compared, both
    signs, with every row; a subset is dropped only when it is well
    conditioned and both ``+c`` and ``-c`` miss some row ``d_k`` by more
    than ``tol + _COFACTOR_SLACK |d_k|``.  ``polar_extreme_rays`` gives
    the argument.  Rows are scaled by their largest entry first, which
    changes neither a direction nor a ratio and keeps the products
    finite.
    """
    n = rows.shape[1]
    if not 2 <= n <= 4 or idx.shape[1] != n - 1:
        return np.ones(len(idx), dtype=bool)
    scale = np.abs(rows).max()
    rows = rows / scale
    squares = (rows * rows).sum(axis=1)
    c = _cofactors(rows.T, idx)
    size = np.sqrt((c * c).sum(axis=0))
    conditioned = size > (_COFACTOR_CONDITION
                          * np.sqrt(squares[idx].sum(axis=1)) ** (n - 1))
    slack = tol / scale + _COFACTOR_SLACK * np.sqrt(squares)
    products = (rows / np.where(slack > 0, slack, 1.0)[:, None]) @ c
    return (~conditioned | (products.max(axis=0) <= size)
            | (products.min(axis=0) >= -size))


def polar_extreme_rays(directions, dim=None, tol=1e-9):
    """Unit extreme rays of the pointed cone ``{g : d_k . g <= 0 for all k}``.

    ``directions`` are the rows ``d_k``.  Extreme rays of a pointed
    polyhedral cone lie on ``dim - 1`` independent active constraints, so
    they are enumerated from the null spaces of row subsets: for each
    subset, in lexicographic order, ``+d`` then ``-d`` is kept if it meets
    every row within ``tol`` and is not within the merge radius of a
    kept ray.  Subsets run a block at a time through a stacked SVD (see
    the module docstring), and the result is bit for bit that of the
    one-subset-at-a-time loop.  Raises when the rows do not span (the
    cone then contains a line and has no ray description).

    In 2-D to 4-D most subsets never reach the SVD: ``_may_hold_ray``
    drops those whose closed-form cofactor ``c`` shows that neither sign
    of the null vector can meet every row.  Why that drops no ray: let
    ``q = |c| / |M|_F^(n-1)`` for the subset ``M`` (rows scaled by one
    common factor).  Then ``sigma_(n-1)(M) / sigma_1(M) >= q``, since
    ``|c|`` is the product of the ``n - 1`` singular values and
    ``sigma_1 <= |M|_F``.  A backward-stable SVD returns the null vector
    of some ``M + E`` with ``|E| <= p eps |M|``, ``p`` at most about 100
    at these sizes, so its angle to the true null line is at most about
    ``p eps / q`` (Wedin); the cofactor is a short sum of products whose
    rounding turns it by at most about ``20 eps / q``.  Only subsets with
    ``q > _COFACTOR_CONDITION`` (1e-4) are dropped, and there the two
    directions agree within about ``3e-10``.  A ray the SVD path keeps
    has ``d_k . u <= tol`` for every row, so ``+-c/|c|`` meets row ``k``
    within ``tol + 3e-10 |d_k|`` plus rounding of order ``eps |d_k|``;
    the prefilter allows ``tol + 1e-6 |d_k|``, over 3000 times that.
    Survivors keep their order, and LAPACK factors each stacked matrix
    on its own, so their SVDs have the bits of the unfiltered block.
    Ill-conditioned and dependent subsets always go to the SVD, which
    keeps the rank decision its own.
    """
    m_rows = np.atleast_2d(np.asarray(directions, dtype=float))
    n = dim if dim is not None else m_rows.shape[1]
    if m_rows.shape[0] == 0:
        raise GeometryError("no directions given; polar is the whole space")
    if np.linalg.matrix_rank(m_rows, tol=1e-9) < n:
        raise GeometryError(
            "directions do not span the space; the polar cone contains a line")
    if n == 1:
        nulls = np.ones((1, 1))
    else:
        nulls = [np.zeros((0, m_rows.shape[1]))]
        for idx in _subset_blocks(m_rows.shape[0], n - 1):
            idx = idx[_may_hold_ray(m_rows, idx, tol)]
            _, sv, vt = np.linalg.svd(m_rows[idx])
            cutoff = np.maximum(sv[:, 0] * 1e-10, 1e-12)
            nulls.append(vt[np.sum(sv > cutoff[:, None], axis=1) == n - 1, -1])
        nulls = np.concatenate(nulls)
    signed = np.stack([nulls, -nulls], axis=1).reshape(-1, nulls.shape[1])
    norms = _row_norms(signed)
    live = ~(norms < 1e-12)
    units = signed[live] / norms[live, None]
    rays = units[_satisfying(units, m_rows, 0.0, tol)]
    return _dedupe_points(rays) if len(rays) else np.zeros((0, n))


def _active_facets(polytope, x):
    """Indices of the irredundant facet rows of ``polytope`` active at x."""
    x = _as_point(x, polytope.dim)
    a, b = polytope.halfspaces
    return tuple(i for i in polytope.reduced()[0] if a[i] @ x >= b[i] - FEAS)


def normal_cone_at(polytope, x, active=None):
    """Normal cone of a polytope at a boundary (or interior) point.

    Generators are the active irredundant facet normals (``active``, if
    the caller holds ``_active_facets(polytope, x)`` already); implicit
    equality rows contribute both signs.  Interior points give the zero
    cone.
    """
    a, _ = polytope.halfspaces
    gens = [a[i] for i in (_active_facets(polytope, x) if active is None
                           else active)]
    for i in polytope.reduced()[1]:
        gens += [a[i], -a[i]]
    return GeneratedCone.from_rays(np.array(gens) if gens else np.zeros((0, polytope.dim)),
                                   dim=polytope.dim)


def polytope_distance(first, second):
    """``|_min_norm_point|`` over the vertex differences, since ``P - Q =
    conv(V_P - V_Q)`` (Gilbert, Johnson & Keerthi, *IEEE J. Robotics
    Autom.* 4(2), 1988); it errs by at most ``1e-12`` of the largest
    difference.  Dim <= 4 (else ``ScaleBoundError``); caches untouched."""
    diff = first._vertex_list()[:, None] - second._vertex_list()[None]
    return float(np.linalg.norm(_min_norm_point(diff.reshape(-1, first.dim))))

"""Vertex and polar-ray enumeration against the per-subset loops they
replaced, and vertex sets against Qhull.

``reference_vertices`` and ``reference_polar_extreme_rays`` are the
earlier implementations: one Python iteration and one LAPACK call per
row subset.  The blocked kernel in ``adjcone.geometry`` must return an
array of the same shape, order and bytes, on generic input and on input
built to stress it: exact ties and duplicate rows, a row whose product
lands on the acceptance threshold or just past it, directions so short
that both signs of a null vector pass, and inputs that span several
blocks.  Qhull's halfspace intersection is an independent oracle for
the vertex sets.
"""

import itertools
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import HalfspaceIntersection

from adjcone import geometry
from adjcone.geometry import (
    GeometryError,
    Polytope,
    _dedupe_points,
    polar_extreme_rays,
)

TOL = 1e-9  # Polytope feasibility slack and polar_extreme_rays default
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None)


def reference_vertices(polytope):
    """The per-subset vertex loop the blocked kernel replaced."""
    if polytope._box_bounds is not None:
        lo, hi = polytope._box_bounds
        return _dedupe_points(np.array(list(itertools.product(*zip(lo, hi)))))
    a, b = polytope.halfspaces
    m = polytope.num_halfspaces
    tol = polytope.tolerances.feas
    found = []
    for idx in itertools.combinations(range(m), polytope.dim):
        sub = a[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, b[list(idx)])
        if np.all(a @ v <= b + tol):
            found.append(v)
    if not found:
        raise GeometryError("vertex enumeration found nothing")
    return _dedupe_points(np.array(found))


def reference_polar_extreme_rays(directions, dim=None, tol=1e-9):
    """The per-subset polar-ray loop the blocked kernel replaced."""
    m_rows = np.atleast_2d(np.asarray(directions, dtype=float))
    n = dim if dim is not None else m_rows.shape[1]
    if m_rows.shape[0] == 0:
        raise GeometryError("no directions given; polar is the whole space")
    if np.linalg.matrix_rank(m_rows, tol=1e-9) < n:
        raise GeometryError(
            "directions do not span the space; the polar cone contains a line")
    rays = []

    def consider(d):
        nrm = np.linalg.norm(d)
        if nrm < 1e-12:
            return
        u = d / nrm
        if np.all(m_rows @ u <= tol):
            if all(np.linalg.norm(u - r) > geometry._MERGE_RADIUS for r in rays):
                rays.append(u)

    if n == 1:
        consider(np.array([1.0]))
        consider(np.array([-1.0]))
    else:
        for idx in itertools.combinations(range(m_rows.shape[0]), n - 1):
            sub = m_rows[list(idx)]
            _, sv, vt = np.linalg.svd(sub)
            if np.sum(sv > max(sv[0] * 1e-10, 1e-12)) != n - 1:
                continue
            d = vt[-1]
            consider(d)
            consider(-d)
    return np.array(rays) if rays else np.zeros((0, n))


def outcome(fn, *args):
    """The array a call returns, or the type and message of its error."""
    try:
        return fn(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@contextmanager
def block_size(rows):
    saved = geometry._ENUM_BLOCK
    geometry._ENUM_BLOCK = rows
    try:
        yield
    finally:
        geometry._ENUM_BLOCK = saved


# -- input families -----------------------------------------------------------


def _spanning_normals(rng, dim, count):
    """Unit normals that positively span R^n: a rotated simplex plus
    uniform directions (the benchmark's step families use the same)."""
    simplex = np.vstack([np.eye(dim), -np.ones((1, dim)) / np.sqrt(dim)])
    simplex -= simplex.mean(axis=0)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q *= np.sign(np.diag(r))
    rows = np.vstack([simplex @ q.T, rng.normal(size=(count - dim - 1, dim))])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows[rng.permutation(count)]


def _halfspaces(kind, rng, dim):
    """``(a, b)`` of a full-dimensional polytope holding the origin."""
    if kind in ("random", "near_tol"):
        count = dim + 1 + int(rng.integers(0, 5))
        scale = rng.uniform(0.5, 3.0, size=count)
        return (_spanning_normals(rng, dim, count) * scale[:, None],
                rng.uniform(0.5, 1.5, size=count) * scale)
    if kind == "step":
        count = dim + 1 + int(rng.integers(0, 5))
        return (_spanning_normals(rng, dim, count),
                rng.uniform(1.0, 1.5, size=count) * rng.choice([1.0, 2.0, 3.0]))
    if kind == "integer":
        # Small integers: many rows meet at a vertex, and some rows repeat
        # exactly or as a parallel redundant copy.
        extra = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), dim))
        a = np.vstack([np.eye(dim), -np.eye(dim), extra]).astype(float)
        b = np.concatenate([rng.integers(1, 3, size=2 * dim),
                            rng.integers(1, 3, size=len(extra))]).astype(float)
        dup = rng.integers(0, len(a), size=2)
        return (np.vstack([a, a[dup]]),
                np.concatenate([b, b[dup] + np.array([0.0, 1.0])]))
    if kind == "box_plus":
        # A box and one more row, cutting it or touching it at a corner.
        lo = -rng.uniform(0.5, 1.5, size=dim)
        hi = rng.uniform(0.5, 1.5, size=dim)
        c = rng.normal(size=dim)
        if rng.random() < 0.5:
            c = np.round(2 * c)
            c[0] = c[0] or 1.0
        corner = np.where(c > 0, hi, lo)
        through = corner if rng.random() < 0.5 else 0.5 * (lo + hi) + 0.1 * (hi - lo)
        return (np.vstack([np.eye(dim), -np.eye(dim), c]),
                np.concatenate([hi, -lo, [c @ through]]))
    raise ValueError(kind)


def _near_threshold(rng, polytope):
    """One more row that a vertex of ``polytope`` violates by about the
    feasibility slack, or by up to 100 times it: the exact test must
    decide, and the prefilter must not."""
    a, b = polytope.halfspaces
    verts = reference_vertices(polytope)
    v = verts[rng.integers(len(verts))]
    c = v - verts.mean(axis=0) + 0.1 * rng.normal(size=polytope.dim)
    c /= np.linalg.norm(c)  # outward-ish: the vertex mean stays inside
    excess = TOL * (1.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(0.1, 2.0))
    return np.vstack([a, c]), np.append(b, c @ v - excess)


@st.composite
def halfspaces(draw, kinds=("random", "step", "integer", "box_plus", "near_tol")):
    """``(a, b)``; each test builds its own Polytope from them, because
    rebuilding one from its normalized rows changes their last bits."""
    kind = draw(st.sampled_from(kinds))
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = _halfspaces(kind, rng, dim)
    if kind == "near_tol":
        a, b = _near_threshold(rng, Polytope(a, b))
    return a, b


def _boundary_point(a, b, center, u):
    rates = a @ u
    return center + np.min((b - a @ center)[rates > 0] / rates[rates > 0]) * u


@st.composite
def polar_inputs(draw):
    """Translated vertex lists, the way the strict normal cone builds them."""
    poly = Polytope(*draw(halfspaces(kinds=("random", "step", "integer",
                                            "box_plus"))))
    place = draw(st.sampled_from(["outside", "facet", "vertex", "collinear",
                                  "coplanar", "tiny", "near_tol"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = poly.halfspaces
    verts = reference_vertices(poly)
    center = verts.mean(axis=0)
    u = rng.normal(size=poly.dim)
    u /= np.linalg.norm(u)
    edge = _boundary_point(a, b, center, u)
    if place == "facet":
        x = edge
    elif place == "vertex":
        x = verts[rng.integers(len(verts))]  # one direction is zero
    elif place == "collinear":
        i, j = rng.choice(len(verts), size=2, replace=False)
        x = verts[i] + rng.uniform(0.2, 1.0) * (verts[i] - verts[j])
    elif place == "coplanar":
        # Outside the polytope, in the hyperplane of its widest facet.
        on = np.abs(a @ verts.T - b[:, None]) <= TOL
        face = verts[on[np.argmax(on.sum(axis=1))]]
        mid = face.mean(axis=0)
        x = face[0] + rng.uniform(0.2, 1.0) * (face[0] - mid)
    else:
        x = center + rng.uniform(1.1, 2.0) * (edge - center)
    directions = verts - x
    if np.all(np.round(verts) == verts):
        dup = rng.integers(0, len(directions), size=2)
        directions = np.vstack([directions, directions[dup]])
    if place == "tiny":
        # Short enough that both signs of some null vectors meet every
        # row within the slack.
        directions = directions * 10.0 ** rng.uniform(-9.0, -8.0)
    if place == "near_tol":
        rays = outcome(reference_polar_extreme_rays, directions)
        if not isinstance(rays, tuple) and len(rays):
            ray = rays[rng.integers(len(rays))]
            w = rng.normal(size=poly.dim)
            w -= (w @ ray) * ray
            excess = 1.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(0.1, 2.0)
            directions = np.vstack([directions, w + excess * TOL * ray])
    return directions


# -- properties ---------------------------------------------------------------


@pytest.mark.parametrize("rows", [None, 7])
@PROPERTY
@given(data=halfspaces())
def test_vertices_match_reference(data, rows):
    want = outcome(reference_vertices, Polytope(*data))
    with block_size(rows or geometry._ENUM_BLOCK):
        got = outcome(Polytope(*data).vertices)
    assert_same(got, want)


@pytest.mark.parametrize("rows", [None, 7])
@PROPERTY
@given(directions=polar_inputs())
def test_polar_rays_match_reference(directions, rows):
    want = outcome(reference_polar_extreme_rays, directions)
    with block_size(rows or geometry._ENUM_BLOCK):
        got = outcome(polar_extreme_rays, directions)
    assert_same(got, want)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=halfspaces(kinds=("random", "step", "integer", "box_plus")))
def test_vertices_match_qhull(data):
    poly = Polytope(*data)
    a, b = poly.halfspaces
    center, radius = poly.chebyshev_center()
    assert radius > 1e-6  # every family is full-dimensional
    hull = HalfspaceIntersection(np.hstack([a, -b[:, None]]), center)
    theirs = hull.intersections
    mine = poly.vertices()
    gap = np.linalg.norm(mine[:, None, :] - theirs[None, :, :], axis=2)
    assert gap.min(axis=1).max() <= 1e-9
    assert gap.min(axis=0).max() <= 1e-9


def test_multi_block_inputs_match_reference():
    # 4-D, 20 rows: C(20, 4) = 4845 vertex subsets, and 30 translated
    # vertices give C(30, 3) = 4060 polar subsets, so both kernels cross
    # block boundaries at the module's own block size.
    rng = np.random.default_rng(11)
    a = _spanning_normals(rng, 4, 20)
    b = rng.uniform(1.0, 1.5, size=20)
    want = reference_vertices(Polytope(a, b))
    got = Polytope(a, b).vertices()
    assert_same(got, want)
    x = 2.0 * _boundary_point(a, b, np.zeros(4), a[0])
    directions = want[:30] - x
    assert_same(polar_extreme_rays(directions), reference_polar_extreme_rays(directions))


def test_both_signs_pass_on_short_directions():
    # Rows as short as the slack: both signs of the null vector of the
    # first row meet every row within 1e-9, and +d must come before -d.
    directions = np.array([[1e-8, 0.0], [-1e-8, 0.0], [0.0, 8e-10],
                           [0.0, 8e-10], [0.0, 8e-10]])
    want = reference_polar_extreme_rays(directions)
    assert len(want) == 2 and np.array_equal(want[0], -want[1])
    assert_same(polar_extreme_rays(directions), want)

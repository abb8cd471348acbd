"""Vertex and polar-ray enumeration against the per-subset loops they
replaced, the merge kernel against the per-pair loops it replaced, and
vertex sets against Qhull.

``reference_vertices`` and ``reference_polar_extreme_rays`` are the
earlier implementations: one Python iteration and one LAPACK call per
row subset, one ``np.linalg.norm`` per compared pair.  The blocked
kernel in ``adjcone.geometry`` must return an array of the same shape,
order and bytes, on generic input and on input built to stress it:
exact ties and duplicate rows, a row whose product lands on the
acceptance threshold or just past it, directions so short that both
signs of a null vector pass, near-parallel, dependent and rescaled rows
around the cofactor prefilter's conditioning threshold, and inputs that
span several blocks.  ``reference_dedupe_points`` and
``reference_from_rays`` hold the merge loops; points at the merge radius
times ``1 -/+ 1e-12`` and NaN rows must merge the same way.  Qhull's
halfspace intersection is an independent oracle for the vertex sets.
"""

import importlib.util
import itertools
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import HalfspaceIntersection

from adjcone import cli, geometry
from adjcone.geometry import (
    GeneratedCone,
    GeometryError,
    Polytope,
    _dedupe_points,
    polar_extreme_rays,
)

TOL = 1e-9  # Polytope feasibility slack and polar_extreme_rays default
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None)


def reference_dedupe_points(points, radius=geometry._MERGE_RADIUS):
    """The per-pair merge loop the merge kernel replaced."""
    kept = []
    for p in points:
        if all(np.linalg.norm(p - q) > radius for q in kept):
            kept.append(p)
    return np.array(kept) if kept else np.zeros((0, points.shape[1]))


def reference_from_rays(rays, dim=None):
    """The generators of the ``GeneratedCone.from_rays`` loop the merge
    kernel replaced."""
    rays = np.atleast_2d(np.asarray(rays, dtype=float))
    kept = []
    for g in rays:
        nrm = np.linalg.norm(g)
        if nrm < geometry.GEN:
            continue
        u = g / nrm
        if all(np.linalg.norm(u - h) > geometry._MERGE_RADIUS for h in kept):
            kept.append(u)
    dim = dim if dim is not None else rays.shape[1]
    return GeneratedCone(np.array(kept) if kept else np.zeros((0, dim)),
                         dim=dim).generators


def reference_vertices(polytope):
    """The per-subset vertex loop the blocked kernel replaced."""
    if polytope._box_bounds is not None:
        lo, hi = polytope._box_bounds
        return reference_dedupe_points(
            np.array(list(itertools.product(*zip(lo, hi)))))
    a, b = polytope.halfspaces
    m = polytope.num_halfspaces
    tol = geometry.FEAS
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
    return reference_dedupe_points(np.array(found))


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
def block_size(rows, name="_ENUM_BLOCK"):
    saved = getattr(geometry, name)
    setattr(geometry, name, rows)
    try:
        yield
    finally:
        setattr(geometry, name, saved)


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


@st.composite
def degenerate_polar_inputs(draw):
    """Translated vertex lists with rows added or rescaled to make row
    subsets degenerate: repeated rows, rows turned by 1e-13 to 1e-3 rad
    (subsets on both sides of the prefilter's conditioning threshold),
    rows shrunk to 1e-12..1e-6 of their length, dependent rows (convex
    combinations of two others), and rows rescaled over eight orders of
    magnitude."""
    directions = draw(polar_inputs())
    kind = draw(st.sampled_from(["repeat", "near_parallel", "tiny", "dependent",
                                 "rescaled"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = directions.shape
    if kind == "rescaled":
        return directions * 10.0 ** rng.uniform(-4.0, 4.0, size=(m, 1))
    base = directions[rng.integers(0, m, size=3)]
    if kind == "repeat":
        extra = base
    elif kind == "near_parallel":
        w = rng.normal(size=base.shape)
        w *= (np.linalg.norm(base, axis=1) / np.linalg.norm(w, axis=1)
              * 10.0 ** rng.uniform(-13.0, -3.0, size=3))[:, None]
        extra = base + w
    elif kind == "tiny":
        extra = base * 10.0 ** rng.uniform(-12.0, -6.0, size=(3, 1))
    else:
        t = rng.uniform(0.2, 0.8, size=(3, 1))
        extra = t * base + (1.0 - t) * directions[rng.integers(0, m, size=3)]
    rows = np.vstack([directions, extra])
    return rows[rng.permutation(len(rows))]


@st.composite
def merge_inputs(draw):
    """Point lists for the merge kernel: fresh points, exact copies, and
    points at distance ``r * (1 - 1e-12)``, ``r``, ``r * (1 + 1e-12)``
    and chains of ``0.6 r`` steps from earlier ones (``r`` the merge
    radius), near the origin where those distances are resolved, plus
    NaN and infinite rows anywhere, the first row included."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = geometry._MERGE_RADIUS
    scale = 10.0 ** rng.choice([-9.0, -6.0, 0.0])
    points = [scale * rng.normal(size=dim)]
    for _ in range(int(rng.integers(0, 40))):
        base = points[rng.integers(len(points))]
        kind = rng.integers(4)
        if kind == 0:
            points.append(scale * rng.normal(size=dim))
        elif kind == 1:
            points.append(base.copy())
        else:
            u = rng.normal(size=dim)
            u /= np.linalg.norm(u)
            step = rng.choice([1.0 - 1e-12, 1.0, 1.0 + 1e-12, 0.6, 1.2])
            points.append(base + r * step * u)
    for bad in (np.nan, np.inf):
        if rng.random() < 0.3:
            row = scale * rng.normal(size=dim)
            row[rng.integers(dim)] = bad
            points.insert(int(rng.integers(len(points) + 1)), row)
    return np.array(points)


@st.composite
def ray_inputs(draw):
    """Rays for ``from_rays``: merge-radius neighbours of a few unit
    directions at lengths from 1e-3 to 1e3, rays of length
    ``1e-9 * (1 -/+ 1e-12)`` around the minimum generator norm, shorter
    ones, zero and NaN rows."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    units = rng.normal(size=(int(rng.integers(1, 5)), dim))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    rays = []
    for _ in range(int(rng.integers(1, 30))):
        u = units[rng.integers(len(units))]
        kind = rng.integers(5)
        if kind == 0:
            w = rng.normal(size=dim)
            w *= geometry._MERGE_RADIUS / np.linalg.norm(w)
            rays.append((u + rng.choice([1.0 - 1e-12, 1.0, 1.0 + 1e-12]) * w)
                        * 10.0 ** rng.uniform(-3.0, 3.0))
        elif kind == 1:
            rays.append(u * geometry.GEN
                        * rng.choice([1.0 - 1e-12, 1.0, 1.0 + 1e-12, 0.1]))
        elif kind == 2:
            rays.append(np.zeros(dim) if rng.random() < 0.5
                        else np.full(dim, np.nan))
        else:
            rays.append(u * 10.0 ** rng.uniform(-3.0, 3.0))
    return np.array(rays)


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


def test_subset_blocks_match_combinations():
    # The blocks are slices of one lexicographic table per (m, k), built
    # once, read-only and of the smallest unsigned dtype; their rows are
    # itertools.combinations in order, also at a block size that splits
    # every table.
    for rows in (geometry._ENUM_BLOCK, 7):
        with block_size(rows):
            for m in range(41):
                for k in range(5):
                    blocks = list(geometry._subset_blocks(m, k))
                    assert all(b.dtype == np.uint8 and len(b) <= rows
                               and not b.flags.writeable for b in blocks)
                    got = [tuple(r) for b in blocks for r in b.tolist()]
                    assert got == list(itertools.combinations(range(m), k))


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


@pytest.mark.parametrize("rows", [None, 7])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(directions=degenerate_polar_inputs())
def test_degenerate_polar_rays_match_reference(directions, rows):
    want = outcome(reference_polar_extreme_rays, directions)
    with block_size(rows or geometry._ENUM_BLOCK):
        got = outcome(polar_extreme_rays, directions)
    assert_same(got, want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(directions=st.one_of(polar_inputs(), degenerate_polar_inputs()))
def test_prefilter_drops_no_ray(directions):
    # Stronger than equal output: no dropped subset has a null vector
    # that the per-subset loop would accept, duplicate or not.
    n = directions.shape[1]
    for idx in geometry._subset_blocks(len(directions), n - 1):
        for subset in idx[~geometry._may_hold_ray(directions, idx, TOL)]:
            _, sv, vt = np.linalg.svd(directions[subset])
            if np.sum(sv > max(sv[0] * 1e-10, 1e-12)) != n - 1:
                continue
            d = vt[-1] / np.linalg.norm(vt[-1])
            assert not np.all(directions @ d <= TOL)
            assert not np.all(directions @ -d <= TOL)


@pytest.mark.parametrize("pairs", [None, 1, 64])
@PROPERTY
@given(points=merge_inputs())
def test_merge_matches_reference(points, pairs):
    with np.errstate(invalid="ignore"):
        want = reference_dedupe_points(points)
        with block_size(pairs or geometry._MERGE_BLOCK, "_MERGE_BLOCK"):
            got = _dedupe_points(points)
    assert_same(got, want)


@PROPERTY
@given(rays=ray_inputs())
def test_from_rays_matches_reference(rays):
    assert_same(outcome(lambda: GeneratedCone.from_rays(rays).generators),
                outcome(reference_from_rays, rays))


def test_merge_edge_cases():
    r = geometry._MERGE_RADIUS
    # A chain: the second row merges into the first, the third is within
    # r of the dropped second only, so it stays.
    chain = np.array([[0.0, 0.0], [0.6 * r, 0.0], [1.2 * r, 0.0]])
    assert_same(_dedupe_points(chain), chain[[0, 2]])
    # A NaN first row is kept and then counts as close to every row.
    nan_first = np.array([[np.nan, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert_same(_dedupe_points(nan_first), nan_first[:1])
    assert_same(_dedupe_points(np.zeros((0, 3))), np.zeros((0, 3)))
    for points in (chain, nan_first):
        assert_same(_dedupe_points(points), reference_dedupe_points(points))


def _bench_gen():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "gen.py")
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_prefilter_cuts_svd_subsets(tmp_path, monkeypatch):
    # The 4-D family of pass 0 of the benchmark's polytope-nd workload at
    # seed 3.  Before the cofactor prefilter each of its two normal-cone
    # commands sent all C(35, 3) = 6,545 vertex subsets of the strict
    # sublevel polytope through the stacked SVD.
    gen = _bench_gen()
    rng = np.random.default_rng([3, 0])
    for dim, facets in ((3, 10), (3, 10), (4, 12)):
        instance, facet_point, interior_point = gen.step_family(rng, dim, facets)
    path = str(tmp_path / "family4d.json")
    gen.write_json(path, instance)
    svd = np.linalg.svd
    stacked = []

    def counting_svd(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacked.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for point in (facet_point, interior_point):
        stacked.clear()
        argv = ["normal-cone", "--instance", path, "--at=" + gen.coords(point),
                "--out", str(tmp_path / "out")]
        assert cli.run(argv) == 0
        assert 0 < sum(stacked) <= 6545 // 10


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(directions=degenerate_polar_inputs())
def test_prefilter_keeps_ill_conditioned_subsets(directions):
    # The slack argument of ``polar_extreme_rays`` trusts the cofactor
    # direction only at a conditioning ratio of 1e-4 or more, and
    # sigma_min / sigma_max bounds that ratio from above: a subset below
    # it goes to the SVD whatever its rows say.
    n = directions.shape[1]
    for idx in geometry._subset_blocks(len(directions), n - 1):
        sv = np.linalg.svd(directions[idx], compute_uv=False)
        ill = ~(sv[:, -1] >= 1e-4 * sv[:, 0])
        assert geometry._may_hold_ray(directions, idx, TOL)[ill].all()

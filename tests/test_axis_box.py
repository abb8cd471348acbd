"""The closed forms of the axis-box path of ``Polytope``, bit for bit
against the numpy forms they replaced (``helpers.array_axis_layout``,
``helpers.array_axis_box`` and ``helpers.matrix_contains``).

``_axis_layout`` and ``_axis_box`` run on ``tolist()`` values, and an
exact box (every unit row exactly a signed axis) decides ``contains`` and
``contains_many`` by its tightest row per side, the latter one column at
a time.  Near-axis rows keep the box bounds but take the matrix product
for both.  Box projections clip column by column, against ``np.clip``
and ``np.linalg.norm(axis=1)``.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adjcone.geometry import (
    EmptyPolytopeError,
    Polytope,
    UnboundedPolytopeError,
    _FEW_POINTS,
    _axis_box,
    _axis_layout,
    _dedupe_points,
)
from helpers import array_axis_box, array_axis_layout, bits, matrix_contains

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-9, -1e-9, 1e-300]
TOLS = [None, 0.0, -0.0, -1e-9, -0.5, 1e-7, 1e-8, 1.0, 2.0, 1e300,
        math.inf, -math.inf, math.nan]
# Off-axis entries: exact zeros, entries that keep a row near an axis
# (|v| <= 1e-12 after normalisation), and entries that do not.
OFF_AXIS = [0.0, -0.0, 1e-300, -1e-13, 5e-13, 1e-12, -2e-12, 1e-6, 0.3]
SCALES = [1.0, -1.0, 2.0, -0.25, 3.0, 1e-3]
offsets = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-10, -1e-10]),
                    st.floats(-3.0, 3.0))


def quiet():
    """A non-finite coordinate makes NaN products in the matrix form."""
    return np.errstate(invalid="ignore")


def outcome(call):
    try:
        return call()
    except (EmptyPolytopeError, UnboundedPolytopeError) as exc:
        return type(exc), str(exc)


@st.composite
def axis_systems(draw, off_axis=st.just(0.0), dims=st.integers(1, 3)):
    """``(a, b)`` of rows on random axes, in random order, with repeated
    rows on one axis; ``off_axis`` fills the other entries."""
    dim = draw(dims)
    rows, offs = [], []
    for j in range(dim):
        for sign in (1.0, -1.0):
            for _ in range(draw(st.integers(0, 3))):
                row = [draw(off_axis) for _ in range(dim)]
                row[j] = sign * abs(draw(st.sampled_from(SCALES)))
                rows.append(row)
                offs.append(draw(offsets))
    if not rows:
        rows, offs = [[1.0] + [0.0] * (dim - 1)], [1.0]
    order = draw(st.permutations(range(len(rows))))
    return (np.array([rows[i] for i in order]),
            np.array([offs[i] for i in order]))


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1)[:, None]


@PROPERTY
@given(axis_systems(off_axis=st.sampled_from(OFF_AXIS)))
def test_layout_matches_array_form(system):
    a = unit_rows(system[0])
    layout, exact = _axis_layout(a.tolist())
    want = array_axis_layout(a)
    if want is None:
        assert layout is None and not exact
        return
    assert layout == [(int(j), bool(up)) for j, up in want]
    assert exact == bool(np.all((a == 0.0) | (np.abs(a) == 1.0)))


@PROPERTY
@given(axis_systems())
def test_box_matches_array_form(system):
    a, b = unit_rows(system[0]), system[1]
    layout, exact = _axis_layout(a.tolist())
    assert exact
    got = outcome(lambda: _axis_box(layout, b.tolist(), a.shape[1]))
    want = outcome(lambda: array_axis_box(array_axis_layout(a), b, a.shape[1]))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert [bits(v) for v in got] == [bits(v) for v in want]


def test_box_errors():
    assert outcome(lambda: Polytope([[1.0], [1.0]], [1.0, 2.0])) == (
        UnboundedPolytopeError, "box is unbounded in a coordinate")
    assert outcome(lambda: Polytope([[1.0], [-1.0]], [-1.0, 0.5])) == (
        EmptyPolytopeError, "box bounds cross")


def test_box_keeps_signed_zero_bits():
    # min and max keep the earlier of two equal signed zeros.
    for b in ([0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0]):
        a = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        got = Polytope(a, b)._box_bounds
        want = array_axis_box(array_axis_layout(a), np.array(b), 1)
        assert [bits(v) for v in got] == [bits(v) for v in want]


@st.composite
def boxes_and_points(draw, count=st.just(1)):
    """An exact box with repeated rows per side, and ``count`` points
    whose coordinates lie on, near or far from its bounds, or are +-0,
    +-inf or NaN."""
    dim = draw(st.integers(1, 3))
    rows, offs, near = [], [], []
    for j in range(dim):
        lo, hi = sorted([draw(offsets), draw(offsets)])
        for sign, bound in ((1.0, hi), (-1.0, -lo)):
            extra = draw(st.lists(st.sampled_from([0.0, -0.0, 1e-12, 1.0]),
                                  max_size=2))
            for pad in [0.0] + extra:
                row = [0.0] * dim
                row[j] = sign * draw(st.sampled_from([1.0, 2.0, 0.5]))
                rows.append(row)
                offs.append((bound + pad) * abs(row[j]))
        near += [lo, hi, lo - 1e-9, hi + 1e-9,
                 np.nextafter(hi + 1e-9, math.inf),
                 np.nextafter(lo - 1e-9, -math.inf)]
    order = draw(st.permutations(range(len(rows))))
    a = np.array([rows[i] for i in order])
    b = np.array([offs[i] for i in order])
    coord = st.one_of(st.sampled_from(SPECIAL + near), st.floats(-4.0, 4.0))
    xs = [[draw(coord) for _ in range(dim)] for _ in range(draw(count))]
    return a, b, xs, draw(st.sampled_from(TOLS))


@PROPERTY
@given(boxes_and_points())
def test_exact_box_contains_matches_matrix_product(case):
    a, b, (x,), tol = case
    p = Polytope(a, b)
    assert p._exact_box is not None
    with quiet():
        assert p.contains(x, tol) == matrix_contains(p, x, tol)


@PROPERTY
@given(boxes_and_points(count=st.integers(0, 6)))
def test_exact_box_contains_many_matches_matrix_product(case):
    # Every tolerance of TOLS, those above 1 and the non-finite ones
    # (which take the matrix product) included.
    a, b, xs, tol = case
    p = Polytope(a, b)
    pts = np.array(xs).reshape(len(xs), p.dim)
    with quiet():
        got = p.contains_many(pts, tol)
        assert got.dtype == bool and got.shape == (len(xs),)
        assert got.tolist() == [matrix_contains(p, x, tol) for x in xs]


@pytest.mark.parametrize("off", [1e-13, -1e-13, 1e-300])
def test_near_axis_rows_take_the_matrix_product(off):
    a = np.array([[1.0, off], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    p = Polytope(a, [1.0, 1.0, 2.0 / abs(off), 2.0 / abs(off)])
    assert p._box_bounds is not None and p._exact_box is None
    # Far along the second axis the off-axis term counts: the first row
    # reads 1 + off / off = 2 against its bound of 1, which the tightest
    # rows per axis alone would accept.
    x = [1.0, 1.0 / off]
    assert not p.contains(x, 0.5)
    assert matrix_contains(p, x, 0.5) is False
    for x in ([0.5, 0.5], [1.0 + 1e-9, 0.0], [math.inf, 0.0], [0.0, math.nan]):
        with quiet():
            assert p.contains(x) == matrix_contains(p, x)


def test_infinite_slack_takes_the_matrix_product():
    # b + inf is inf, so an infinite coordinate passes its own axis rows;
    # the other axis's rows read 0 * inf = NaN and fail.
    p = Polytope.from_box([-1.0, -1.0], [1.0, 1.0])
    for x in ([math.inf, 0.0], [0.0, -math.inf]):
        with quiet():
            assert not p.contains(x, math.inf)
            assert not matrix_contains(p, x, math.inf)
    one = Polytope.from_box([-1.0], [1.0])
    assert one.contains([math.inf], math.inf)
    assert matrix_contains(one, [math.inf], math.inf)


@pytest.mark.parametrize("tol", TOLS)
def test_exact_box_contains_many_at_bound_neighbours(tol):
    # Every pair of coordinates from the bounds, the bounds plus or minus
    # the slack, and the floats next to each, on a box with rows of
    # several scales and a looser copy per side.
    a = np.array([[2.0, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -2.0],
                  [1.0, 0.0], [0.0, -1.0]])
    b = np.array([2.0, 1.0, 0.25, 1.0, 1.0 + 1e-12, 0.5 + 1e-12])
    p = Polytope(a, b)
    assert p._exact_box is not None
    slack = 1e-9 if tol is None else tol
    coords = set(SPECIAL)
    for bound in (*p._box_bounds[0], *p._box_bounds[1]):
        for v in (bound, bound + slack, bound - slack):
            coords |= {v, np.nextafter(v, math.inf), np.nextafter(v, -math.inf)}
    pts = np.array(list(itertools.product(sorted(coords, key=repr), repeat=2)))
    with quiet():
        assert p.contains_many(pts, tol).tolist() == [
            matrix_contains(p, x, tol) for x in pts]


def test_contains_many_takes_the_matrix_product_off_the_column_test():
    # Slack above 1 or infinite: the same rows as ``contains``.
    p = Polytope.from_box([-1.0, -1.0], [1.0, 1.0])
    with quiet():
        assert p.contains_many([[math.inf, 0.0], [0.0, -math.inf]],
                               math.inf).tolist() == [False, False]
    one = Polytope.from_box([-1.0], [1.0])
    assert one.contains_many([[math.inf], [-math.inf], [2.0]],
                             math.inf).tolist() == [True, True, True]
    assert one.contains_many([[3.5], [-2.0]], 2.0).tolist() == [False, True]
    # Points of another dimension fail in the product, as before.
    with pytest.raises(ValueError):
        p.contains_many([[0.0, 0.0, 0.0]])


WIDTHS = [0.0, 5e-10, 1e-9, 1.0000001e-9, 1.000001e-9, 1.0000011e-9, 2e-9, 0.5]


@PROPERTY
@given(dim=st.integers(1, 3), origin=st.sampled_from([0.0, -1.0, 1e6]),
       widths=st.lists(st.sampled_from(WIDTHS), min_size=3, max_size=3))
def test_box_vertices_merge_only_corners_that_can(dim, origin, widths):
    # Corners of a box wider than 1e-9 (1 + 1e-6) in every axis skip
    # the merge; narrower boxes merge as before.
    lo = np.full(dim, origin)
    hi = lo + np.array(widths[:dim])
    box = Polytope.from_box(lo, hi)
    corners = np.array(list(itertools.product(*zip(*box._box_bounds))))
    assert bits(box.vertices()) == bits(_dedupe_points(corners))


@st.composite
def boxes_and_rows(draw):
    """A box of ``axis_systems`` rows, near-axis ones too (the unit box
    where they make no box), and 1-3 rows of points, up to 20 on a 1-D
    box: special values, the bounds with both zero signs and their
    neighbours, and plain floats."""
    a, b = draw(axis_systems(off_axis=st.sampled_from(OFF_AXIS[:5])))
    try:
        p = Polytope(a, b)
    except (EmptyPolytopeError, UnboundedPolytopeError):
        p = None
    if p is None or p._box_bounds is None:
        p = Polytope.from_box(-np.ones(a.shape[1]), np.ones(a.shape[1]))
    lo, hi = p._box_bounds
    near = [v for bound in (*lo, *hi)
            for v in (bound, -bound, np.nextafter(bound, math.inf),
                      np.nextafter(bound, -math.inf))]
    coord = st.one_of(st.sampled_from(SPECIAL + [1e300, -1e300] + near),
                      st.floats(-4.0, 4.0))
    rows = draw(st.integers(1, 20 if p.dim == 1 else 3))
    return p, np.array([[draw(coord) for _ in range(p.dim)]
                        for _ in range(rows)])


def _box(lo, hi):
    return Polytope.from_box(lo, hi)


@PROPERTY
@given(boxes_and_rows())
@example((_box([0.0], [1.0]), np.array([[-0.0]])))
@example((_box([-1.0], [-0.0]), np.array([[0.0], [-0.0]])))
@example((_box([-1.0], [-0.0]), np.array([[0.0]] * (_FEW_POINTS + 1))))
@example((_box([0.0], [1.0]), np.empty((0, 1))))
def test_box_projection_matches_clip_and_norm(case):
    # The Python-float path for a few points on a 1-D box and the numpy
    # path otherwise: the bits of np.clip and of np.linalg.norm(axis=1),
    # with ties of signed zeros.
    p, pts = case
    lo, hi = p._box_bounds
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.clip(pts, lo, hi)
        dist = np.linalg.norm(pts - want, axis=1)
        got, got_dist = p.project_many(pts)
    assert bits(got) == bits(want)
    assert bits(got_dist) == bits(dist)


@st.composite
def boxes_and_point_arrays(draw):
    """A box in 2-D to 4-D of ``axis_systems`` rows (near-axis ones too,
    the unit box where they make no box) and 1-200 rows of points drawn
    from special values, the bounds with both zero signs and their
    neighbours, and plain floats."""
    a, b = draw(axis_systems(off_axis=st.sampled_from(OFF_AXIS[:5]),
                             dims=st.integers(2, 4)))
    try:
        p = Polytope(a, b)
    except (EmptyPolytopeError, UnboundedPolytopeError):
        p = None
    if p is None or p._box_bounds is None:
        p = Polytope.from_box(-np.ones(a.shape[1]), np.ones(a.shape[1]))
    lo, hi = p._box_bounds
    near = [v for bound in (*lo, *hi)
            for v in (bound, -bound, np.nextafter(bound, math.inf),
                      np.nextafter(bound, -math.inf))]
    pool = np.array(SPECIAL + [1e300, -1e300] + near)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 200))
    pts = rng.uniform(-4.0, 4.0, (rows, p.dim))
    special = rng.random((rows, p.dim)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    pts[special] = rng.choice(pool, size=int(special.sum()))
    return p, pts


@PROPERTY
@given(boxes_and_point_arrays())
def test_box_columns_match_clip_and_norm(case):
    # np.clip takes the bound on a tie of signed zeros here, and the
    # norm adds each row from left to right: the same bits.
    p, pts = case
    lo, hi = p._box_bounds
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.clip(pts, lo, hi)
        dist = np.linalg.norm(pts - want, axis=1)
        got, got_dist = p.project_many(pts)
    assert bits(got) == bits(want)
    assert bits(got_dist) == bits(dist)


def test_box_columns_keep_nan_and_tie_bits():
    p = _box([0.0, -1.0], [1.0, -0.0])
    pts = np.array([[-0.0, 0.0], [math.nan, -0.0], [math.nan, math.nan],
                    [-math.inf, math.inf]])
    with np.errstate(invalid="ignore"):
        got, dist = p.project_many(pts)
        assert bits(got) == bits(np.clip(pts, *p._box_bounds))
    assert [math.copysign(1.0, v) for v in got[0]] == [1.0, -1.0]
    assert np.isnan(dist[1:3]).all() and dist[3] == math.inf
    # Two NaN payloads in one row: both forms give NaN, but which payload
    # survives the sum is up to numpy's loop.
    a, b = np.array([0x7FF8000000000001, 0xFFF8000000000ABC],
                    dtype=np.uint64).view(float)
    with np.errstate(invalid="ignore"):
        assert np.isnan(p.project_many(np.array([[a, b]] * 40))[1]).all()


@PROPERTY
@given(boxes_and_point_arrays(),
       st.sampled_from([0.0, -0.0, 1e-9, 0.5, 1.0, 3.0, math.inf, -math.inf,
                        math.nan, "row"]))
def test_box_within_distance_matches_projection(case, radius):
    # "row" takes an exact distance of the case as the radius.
    p, pts = case
    with np.errstate(invalid="ignore", over="ignore"):
        dist = p.project_many(pts)[1]
        if radius == "row":
            radius = float(dist[len(dist) // 2])
        got = p.within_distance(pts, radius)
    assert got.tolist() == (dist <= radius).tolist()

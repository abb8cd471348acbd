"""Property tests: the batch kernels of StepLevelFunction against
per-point references.

``reference_contains`` is the adjusted-membership rule written point by
point from the scalar primitives (``evaluate``, ``in_argmin``, ``rho``,
``Polytope.contains``/``distance``); the batch kernel must agree with it
row for row, including which error it raises.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adjcone.geometry import FEAS, Polytope
from adjcone.quasiconvex import (
    AdjustedAnchor,
    ArgminError,
    DomainError,
    StepLevelFunction,
)
from helpers import band_edge_points

FAMILIES = ["step1d", "sq2d", "nested3d", "corrupted1d", "pentagons2d"]

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def reference_contains(f, x, y, tol=None):
    slack = tol if tol is not None else FEAS
    value = f.evaluate(x)
    if math.isinf(value):
        raise DomainError("adjusted set undefined outside the domain")
    if not any(poly.contains(y) for lam, poly in zip(f.levels, f.polytopes)
               if lam <= value + 1e-12):
        return False
    if f.in_argmin(x):
        return True
    dist = min((poly.project(y)[1] for lam, poly in zip(f.levels, f.polytopes)
                if lam < value - 1e-12), default=math.inf)
    return dist <= f.rho(x) + slack


def special_points(f):
    """Level vertices, Chebyshev centers (the argmin anchors among them)
    and the grid spanned by every level's bounding-box coordinates, which
    for boxes lies on the level boundaries."""
    pts = [p.vertices() for p in f.polytopes]
    pts.append(np.array([p.chebyshev_center()[0] for p in f.polytopes]))
    bounds = [p.bounding_box() for p in f.polytopes]
    axes = [sorted({b[side][k] for b in bounds for side in (0, 1)})
            for k in range(f.dim)]
    pts.append(np.array(list(itertools.product(*axes))))
    return np.vstack(pts)


def points(f):
    """Single points: uniform in the union's bounding box grown by 0.5
    (so some fall outside the domain), or one of the special points."""
    bounds = [p.bounding_box() for p in f.polytopes]
    lo = np.min([b[0] for b in bounds], axis=0) - 0.5
    hi = np.max([b[1] for b in bounds], axis=0) + 0.5
    uniform = st.tuples(*[st.floats(float(lo[k]), float(hi[k]))
                          for k in range(f.dim)]).map(np.array)
    special = special_points(f)
    return st.one_of(uniform, st.sampled_from(list(special)))


def outcome(compute):
    try:
        return np.asarray(compute())
    except (DomainError, ArgminError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", FAMILIES)
@PROPERTY
@given(data=st.data())
def test_evaluate_many_matches_evaluate(name, request, data):
    f = request.getfixturevalue(name)
    ys = np.array(data.draw(st.lists(points(f), min_size=1, max_size=30)))
    expected = np.array([f.evaluate(y) for y in ys])
    assert np.array_equal(f.evaluate_many(ys), expected)


@pytest.mark.parametrize("tol", [None, 1e-7])
@pytest.mark.parametrize("name", FAMILIES)
@PROPERTY
@given(data=st.data())
def test_adjusted_contains_many_matches_reference(name, tol, request, data):
    f = request.getfixturevalue(name)
    x = data.draw(points(f))
    ys = np.array(data.draw(st.lists(points(f), min_size=1, max_size=30)))
    if data.draw(st.booleans()):
        ys = np.vstack([ys, x])
    expected = outcome(lambda: [reference_contains(f, x, y, tol) for y in ys])
    got = outcome(lambda: AdjustedAnchor(f, x).contains_many(ys, tol))
    if isinstance(expected, type):
        assert got is expected
    else:
        assert got.dtype == bool and np.array_equal(got, expected)


def test_kernels_reject_wrong_dimension(sq2d):
    with pytest.raises(ValueError, match="dimension"):
        AdjustedAnchor(sq2d, [1.5, 0.5]).contains_many([[0.0, 0.0, 0.0]])
    # The rows are checked before the anchor is evaluated.
    with pytest.raises(ValueError, match="expected points of dimension 2"):
        AdjustedAnchor(sq2d, [1.5]).contains_many([[0.0, 0.0, 0.0]])


def test_anchor_works_on_first_use(step1d, monkeypatch):
    # No row in the sublevel set: neither the argmin test nor rho runs.
    calls = []
    for name in ("in_argmin", "rho"):
        method = getattr(StepLevelFunction, name)
        monkeypatch.setattr(StepLevelFunction, name, lambda self, x, m=method,
                            n=name: calls.append(n) or m(self, x))
    anchor = AdjustedAnchor(step1d, [0.5])
    assert calls == [] and not anchor.contains_many([[5.0]]).any()
    assert calls == []


@pytest.mark.parametrize("tol, expected", [(None, [False, True, False]),
                                           (1e-7, [True, True, False])])
def test_tol_widens_the_enlargement(step1d, tol, expected):
    # rho(0.5) = 0.5; the rows sit 5e-8, 5e-10 and 2e-7 beyond it.
    ys = [[0.5 + 5e-8], [0.5 + 5e-10], [0.5 + 2e-7]]
    assert AdjustedAnchor(step1d, [0.5]).contains_many(ys, tol).tolist() == expected
    assert [reference_contains(step1d, [0.5], y, tol) for y in ys] == expected


@pytest.fixture(scope="module")
def octahedra3d():
    """Nested non-box family: a turned regular octahedron at scales 1, 2, 3."""
    rows = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    turn, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    return StepLevelFunction([0.0, 1.0, 2.0],
                             [Polytope(rows @ turn, s * np.ones(8))
                              for s in (1.0, 2.0, 3.0)])


@pytest.mark.parametrize("tol", [None, 1e-7])
@pytest.mark.parametrize("name", ["pentagons2d", "rotated", "octahedra3d"])
def test_band_edge_rows_match_reference(name, tol, request):
    # Rows at (rho(x) + tol) * (1 -/+ 1e-12) from the strict sublevel set,
    # for anchors near every vertex of each non-argmin level: exactly the
    # rows that the distance bounds cannot decide.
    f = request.getfixturevalue(name)
    slack = tol if tol is not None else FEAS
    rng = np.random.default_rng(11)
    outcomes = set()
    for j in range(1, len(f.levels)):
        center, _ = f.polytopes[j].chebyshev_center()
        for x in 0.9 * f.polytopes[j].vertices() + 0.1 * center:
            assert f.evaluate(x) == f.levels[j]
            ys = band_edge_points(f.polytopes[j - 1], f.rho(x) + slack, rng)
            expected = [reference_contains(f, x, y, tol) for y in ys]
            got = AdjustedAnchor(f, x).contains_many(ys, tol)
            assert got.dtype == bool and got.tolist() == expected
            outcomes.update(expected)
    assert outcomes == {False, True}


def test_anchor_computes_rho_once(pentagons2d, monkeypatch):
    # An anchor's samples and every membership test at it share one
    # rho(x); off the argmin set the samples pass the test they drew on.
    calls = []
    rho = StepLevelFunction.rho
    monkeypatch.setattr(StepLevelFunction, "rho",
                        lambda self, x: calls.append(1) or rho(self, x))
    f = pentagons2d
    center, _ = f.polytopes[2].chebyshev_center()
    anchor = AdjustedAnchor(f, 0.9 * f.polytopes[2].vertices()[0] + 0.1 * center)
    assert anchor.value == 2.0 and not anchor.in_argmin
    members = anchor.sample(np.random.default_rng(3), 16)
    assert len(members) == 16 and anchor.contains_many(members).all()
    assert anchor.contains_many(members, tol=1e-7).all()
    assert calls == [1]
    assert anchor.rho == rho(f, anchor.x)

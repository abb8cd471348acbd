"""The boundedness certificate of ``Polytope`` construction and the lazy
``bounding_box``, against the 2n coordinate LPs of
``helpers.lp_bounding_box``.

Construction of a non-box polytope runs a feasibility probe and one LP
for some ``y >= 1`` with ``A^T y = 0``, and checks y against
``sigma_min(A)``; a nonempty system is bounded exactly when rank A = n
and such a y exists (Stiemke's alternative).  When the check fails, the
coordinate LPs decide.  The oracle decides boundedness by minimizing and
maximizing every coordinate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjcone import lp
from adjcone.geometry import EmptyPolytopeError, Polytope, UnboundedPolytopeError
from helpers import STEP_3D, STEP_4D, lp_bounding_box

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def outcome(build):
    try:
        build()
    except EmptyPolytopeError:
        return "empty"
    except UnboundedPolytopeError:
        return "unbounded"
    return "bounded"


def oracle(a, b):
    """What the 2n coordinate LPs decide, after the same feasibility probe."""
    return outcome(lambda: lp_bounding_box(Polytope(a, b, check_bounded=False)))


def _turn(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


def _spanning(rng, dim):
    """A rotated simplex (rows summing to zero) plus uniform normals: the
    rows positively span R^n."""
    simplex = np.vstack([np.eye(dim), -np.ones(dim) / np.sqrt(dim)])
    extra = rng.normal(size=(rng.integers(0, 4), dim))
    return np.vstack([simplex @ _turn(rng, dim), extra])


def _strip(dim):
    """``+/-e_k`` for every coordinate but the last, plus ``e_n``: the
    direction ``-e_n`` recedes."""
    rows = [sign * e for e in np.eye(dim)[:-1] for sign in (1.0, -1.0)]
    return np.vstack(rows + [np.eye(dim)[-1]])


def _wedge(rng, dim):
    """``(1, +/-delta)`` and ``(-1, 0)`` in the first two coordinates,
    ``+/-e_k`` in the others: bounded, with an extent of about
    ``1/delta`` along the second coordinate."""
    delta = 10.0 ** rng.uniform(-6.0, -1.0)
    rows = [[1.0, delta], [1.0, -delta], [-1.0, 0.0]]
    rows = [row + [0.0] * (dim - 2) for row in rows]
    for k in range(2, dim):
        rows += [list(sign * np.eye(dim)[k]) for sign in (1.0, -1.0)]
    return np.array(rows)


def _sharp_wedge(rng, dim):
    """``(delta, +/-1)`` and ``(-1, 0)`` in the first two coordinates,
    ``+/-e_k`` in the others, with ``delta`` from 1e-11 to 1e-1: bounded,
    with an extent of about ``1/delta`` along the first coordinate, and
    a certificate ``y`` with entries of about ``1/delta``."""
    delta = 10.0 ** rng.uniform(-11.0, -1.0)
    rows = [[delta, 1.0], [delta, -1.0], [-1.0, 0.0]]
    rows = [row + [0.0] * (dim - 2) for row in rows]
    for k in range(2, dim):
        rows += [list(sign * np.eye(dim)[k]) for sign in (1.0, -1.0)]
    return np.array(rows)


def _slab(rng, dim):
    """``(1, eps)`` and ``(-1, eps)`` in the first two coordinates,
    ``+/-e_k`` in the others, with ``eps`` from 1e-11 to 1e-8: the rows
    lie within ``eps`` of a common hyperplane, and ``-e_2`` recedes."""
    eps = 10.0 ** rng.uniform(-11.0, -8.0)
    rows = [[1.0, eps] + [0.0] * (dim - 2), [-1.0, eps] + [0.0] * (dim - 2)]
    for k in range(2, dim):
        rows += [list(sign * np.eye(dim)[k]) for sign in (1.0, -1.0)]
    return np.array(rows)


@st.composite
def systems(draw):
    """``(kind, a, b)``: rows of one of seven kinds, turned by a random
    rotation so that construction leaves the axis-box path, with offsets
    either around the origin (nonempty) or of either sign (often empty).
    """
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["spanning", "one row removed", "strip",
                                 "near-parallel", "sharp wedge",
                                 "near-orthogonal slab", "empty strip"]))
    if kind == "spanning":
        a = _spanning(rng, dim)
    elif kind == "one row removed":
        a = _spanning(rng, dim)
        a = np.delete(a, rng.integers(0, a.shape[0]), axis=0)
    elif kind == "near-parallel":
        a = _wedge(rng, dim)
        if draw(st.booleans()):  # the wedge opens: (-1, 0) goes
            a = np.delete(a, 2, axis=0)
    elif kind == "sharp wedge":
        a = _sharp_wedge(rng, dim)
    elif kind == "near-orthogonal slab":
        a = _slab(rng, dim)
    else:
        a = _strip(dim)
    b = (rng.uniform(0.1, 1.0, size=a.shape[0]) if draw(st.booleans())
         else rng.uniform(-1.0, 1.0, size=a.shape[0]))
    if kind == "empty strip":  # x_1 <= -1 and x_1 >= 1 across the strip
        b[:2] = -1.0
    return kind, a @ _turn(rng, dim), b


@PROPERTY
@given(systems())
def test_certificate_agrees_with_coordinate_lps(system):
    # A certified polytope's lazy box is the oracle's, byte for byte.
    kind, a, b = system
    got = outcome(lambda: Polytope(a, b))
    assert got == oracle(a, b)
    if kind == "empty strip":
        assert got == "empty"
    elif kind in ("strip", "near-orthogonal slab"):
        assert got in ("empty", "unbounded")
    if got == "bounded":
        box = Polytope(a, b).bounding_box()
        want = lp_bounding_box(Polytope(a, b, check_bounded=False))
        assert [side.tobytes() for side in box] == [side.tobytes() for side in want]


def test_rank_deficient_rows_are_unbounded():
    # Rows that positively span only a plane of R^3: y = 1 solves
    # A^T y = 0, and only sigma_min(A) = 0 rejects them.
    plane = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0]])
    a = np.vstack([plane, -plane])
    assert not np.any(a.T @ np.ones(6))
    with pytest.raises(UnboundedPolytopeError):
        Polytope(a, np.ones(6))


@pytest.mark.parametrize("eps", [5e-9, 1e-9, 1e-10, 1e-11])
@pytest.mark.parametrize("angle", [0.0, 0.3], ids=["axes", "turned"])
def test_near_orthogonal_slab_is_unbounded(eps, angle):
    # -e_2 recedes from |x_1| <= 1 - eps x_2.  The certificate LP's phase
    # 1 leaves a residual of about 2 eps, under its absolute tolerance,
    # and returns y = (1, 1), or y = 0 outside its bounds for eps of
    # about 1e-9; the check against sigma_min(A) (about eps) rejects both.
    turn = np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])
    a = np.array([[1.0, eps], [-1.0, eps]]) @ turn.T
    with pytest.raises(UnboundedPolytopeError):
        Polytope(a, np.ones(2))
    with pytest.raises(UnboundedPolytopeError):
        lp_bounding_box(Polytope(a, np.ones(2), check_bounded=False))


def test_sharp_wedge_falls_back_to_coordinate_lps():
    # (3e-10, +/-1) and (-1, 0) bound a wedge of length about 3.3e9,
    # certified by y = (t, t, 1) with t about 1.7e9.  The certificate LP's
    # reduced costs of about 3e-10 fall below the simplex cost tolerance,
    # so it reports infeasible, and the coordinate LPs decide: bounded.
    a, b = [[3e-10, 1.0], [3e-10, -1.0], [-1.0, 0.0]], np.ones(3)
    lp.clear_cache()
    polytope = Polytope(a, b)
    assert lp.cache_counts()["calls"] == 2 + 2 * 2
    box = polytope.bounding_box()
    want = lp_bounding_box(Polytope(a, b, check_bounded=False))
    assert [side.tobytes() for side in box] == [side.tobytes() for side in want]


def test_thin_wedge_is_certified_bounded():
    # (1, +/-1e-11) and (-1, 0) bound a wedge of length 2 and height
    # 4e11; y = (1, 1, 2) certifies it.  Here the certificate and the
    # coordinate LPs disagree: those call the wedge unbounded, because
    # the entering column's entries +/-1e-11 fall below the simplex
    # pivot tolerance 1e-10.  The property tests keep the angle at 1e-6
    # or more, where the two agree.
    polytope = Polytope([[1.0, 1e-11], [1.0, -1e-11], [-1.0, 0.0]], np.ones(3))
    assert polytope.contains([0.0, 1e11])


def _levels(family):
    return [(np.array(p["A"]), np.array(p["b"])) for p in family["polytopes"]]


@pytest.mark.parametrize("family", [STEP_3D, STEP_4D], ids=["3d", "4d"])
@pytest.mark.parametrize("warm", [False, True], ids=["first", "warm-cache"])
def test_lazy_box_is_the_oracle_box(family, warm):
    # The levels share their rows, so their coordinate LPs share bodies:
    # with the oracle's LPs cached first, every box is replayed.
    want = []
    for a, b in _levels(family):
        lp.clear_cache()
        want.append(lp_bounding_box(Polytope(a, b, check_bounded=False)))
    lp.clear_cache()
    levels = [Polytope(a, b) for a, b in _levels(family)]
    if warm:
        for polytope in levels:
            lp_bounding_box(polytope)
            polytope.chebyshev_center()
    got = [polytope.bounding_box() for polytope in levels]
    if warm:
        assert lp.cache_counts()["replayed"] >= 2 * levels[0].dim * len(levels)
    assert ([[side.tobytes() for side in box] for box in got]
            == [[side.tobytes() for side in box] for box in want])


@pytest.mark.parametrize("family", [STEP_3D, STEP_4D], ids=["3d", "4d"])
def test_construction_solves_two_lps(family):
    # A feasibility probe and the certificate; the box waits for its
    # first use.
    a, b = _levels(family)[0]
    lp.clear_cache()
    polytope = Polytope(a, b)
    assert lp.cache_counts()["calls"] == 2
    polytope.bounding_box()
    polytope.bounding_box()
    assert lp.cache_counts()["calls"] == 2 + 2 * polytope.dim

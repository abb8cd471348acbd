"""Face structure from the vertex incidence against the LP face tests it
replaced.

``reference_reduced`` and ``reference_proper_faces`` are the earlier
implementations: one LP per row for the implicit-equality test, one
sequential redundancy LP per remaining row, and a Python scan over row
pairs for parallel duplicates.  ``Polytope.reduced`` and
``Polytope.proper_faces`` read the same answers off the incidence of
the enumerated vertices, and must return equal index tuples and equal
face lists on generic input and on input built to stress them: flat
polytopes given by an equality pair, lower-dimensional hulls, exact and
near-exact duplicate rows, and cross-polytopes, whose vertices lie on
many facets.
"""

import importlib.util
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjcone.geometry import FEAS, FaceDescriptor, Polytope, normal_cone_at
from adjcone.lp import solve_lp

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)

_spec = importlib.util.spec_from_file_location(
    "bench_gen", os.path.join(os.path.dirname(__file__), os.pardir,
                              "bench", "gen.py"))
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def reference_reduced(polytope):
    """The LP-based row classification ``Polytope.reduced`` replaced."""
    a, b = polytope.halfspaces
    m = polytope.num_halfspaces
    tol = FEAS

    alive = []
    for i in range(m):
        dominated = False
        for j in range(m):
            if i == j:
                continue
            if np.linalg.norm(a[i] - a[j]) <= 1e-9:
                if b[j] < b[i] - 1e-12 or (abs(b[j] - b[i]) <= 1e-12 and j < i):
                    dominated = True
                    break
        if not dominated:
            alive.append(i)

    equalities = []
    candidates = []
    for i in alive:
        low = solve_lp(a[i], a_ub=a, b_ub=b)
        if low.optimal and low.value >= b[i] - max(tol, 1e-9):
            equalities.append(i)
        else:
            candidates.append(i)

    facets = list(candidates)
    for i in list(candidates):
        others = [j for j in facets if j != i] + equalities
        relax_a = np.vstack([a[others], a[i][None, :]])
        relax_b = np.concatenate([b[others], [b[i] + 1.0]])
        hi = solve_lp(-a[i], a_ub=relax_a, b_ub=relax_b)
        if hi.optimal and -hi.value <= b[i] + max(tol, 1e-9):
            facets.remove(i)
    return tuple(facets), tuple(equalities)


def reference_proper_faces(polytope):
    """The per-row face scan ``Polytope.proper_faces`` replaced."""
    facet_idx, _ = reference_reduced(polytope)
    verts = polytope.vertices()
    a, b = polytope.halfspaces
    tol = FEAS
    all_ids = frozenset(range(len(verts)))

    facet_sets = []
    for i in facet_idx:
        on = frozenset(int(k) for k in
                       np.nonzero(a[i] @ verts.T >= b[i] - tol)[0])
        if on and on != all_ids:
            facet_sets.append(on)

    closure = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        fresh = set()
        for face in frontier:
            for base in facet_sets:
                meet = face & base
                if meet and meet != all_ids and meet not in closure:
                    fresh.add(meet)
        closure |= fresh
        frontier = fresh

    faces = []
    for vset in closure:
        pts = verts[sorted(vset)]
        active = tuple(int(i) for i in range(polytope.num_halfspaces)
                       if np.all(a[i] @ pts.T >= b[i] - tol))
        rank = 0
        if len(pts) > 1:
            rank = int(np.linalg.matrix_rank(pts - pts[0], tol=1e-9))
        faces.append(FaceDescriptor(active=active,
                                    vertex_ids=tuple(sorted(vset)),
                                    dim=rank))
    faces.sort(key=lambda f: (-len(f.vertex_ids), f.vertex_ids))
    return faces


# -- input families -----------------------------------------------------------


def _unit_rows(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _box_rows(dim, half):
    eye = np.eye(dim)
    return np.vstack([eye, -eye]), np.full(2 * dim, half)


def _rotation(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def _face_polytope(kind, rng, dim):
    if kind in ("random", "flat"):
        # Random rows through a box; every row keeps the origin inside.
        count = int(rng.integers(1, 7))
        box_a, box_b = _box_rows(dim, rng.uniform(1.0, 2.0))
        a = np.vstack([_unit_rows(rng, count, dim), box_a])
        b = np.concatenate([rng.uniform(0.2, 1.5, size=count), box_b])
        if kind == "flat":
            c = _unit_rows(rng, 1, dim)[0]
            t = rng.uniform(-0.1, 0.1) if rng.random() < 0.5 else 0.0
            at = int(rng.integers(0, len(b) + 1))
            a = np.insert(a, at, [c, -c], axis=0)
            b = np.insert(b, at, [t, -t])
        order = rng.permutation(len(b))
        return Polytope(a[order], b[order])
    if kind == "hull":
        return Polytope.from_vertices(
            rng.normal(size=(int(rng.integers(1, 8)), dim)))
    if kind == "flat_hull":
        # Points in a random affine subspace of lower dimension.
        sub = int(rng.integers(0, dim))
        basis = _unit_rows(rng, max(sub, 1), dim)[:sub]
        coords = rng.normal(size=(int(rng.integers(1, 8)), sub))
        return Polytope.from_vertices(rng.normal(size=dim) + coords @ basis)
    if kind == "integer":
        # Small-integer rows: exact duplicates, parallel copies with a
        # larger offset, and sometimes an equality pair.
        extra = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), dim))
        extra[np.all(extra == 0, axis=1), 0] = 1
        a = np.vstack([np.eye(dim), -np.eye(dim), extra]).astype(float)
        b = np.concatenate([rng.integers(1, 3, size=2 * dim),
                            rng.integers(0, 3, size=len(extra))]).astype(float)
        dup = rng.integers(0, len(a), size=2)
        a = np.vstack([a, a[dup]])
        b = np.concatenate([b, b[dup] + np.array([0.0, 1.0])])
        if rng.random() < 0.5:
            c = rng.integers(-2, 3, size=dim).astype(float)
            c[0] = c[0] or 1.0
            a = np.vstack([a, c, -c])
            b = np.concatenate([b, [0.0, 0.0]])
        order = rng.permutation(len(b))
        return Polytope(a[order], b[order])
    if kind == "cross":
        # Rotated cross-polytope: every vertex lies on 2^(dim-1) facets.
        signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * dim)).reshape(dim, -1).T
        return Polytope(signs @ _rotation(rng, dim).T,
                        np.full(len(signs), rng.uniform(0.5, 2.0)))
    if kind == "step":
        instance, _, _ = gen.step_family(rng, dim, dim + 1 + int(rng.integers(0, 6)))
        level = instance["polytopes"][int(rng.integers(0, 3))]
        return Polytope(level["A"], level["b"])
    raise ValueError(kind)


KINDS = ("random", "flat", "hull", "flat_hull", "integer", "cross", "step")


@st.composite
def face_polytopes(draw):
    kind = draw(st.sampled_from(KINDS))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _face_polytope(kind, rng, dim)


# -- properties ---------------------------------------------------------------


@PROPERTY
@given(poly=face_polytopes())
def test_reduced_matches_reference(poly):
    assert poly.reduced() == reference_reduced(poly)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(poly=face_polytopes())
def test_proper_faces_match_reference(poly):
    assert poly.proper_faces() == reference_proper_faces(poly)


def test_reduced_makes_no_lp_call(monkeypatch):
    from adjcone import geometry

    def refuse(*args, **kwargs):
        raise AssertionError("reduced() called solve_lp")

    poly = _face_polytope("flat", np.random.default_rng(5), 3)
    poly.vertices()
    monkeypatch.setattr(geometry, "solve_lp", refuse)
    assert poly.reduced()
    assert poly.proper_faces()


# -- explicit cases ------------------------------------------------------------


def _checked(poly, want):
    assert poly.reduced() == want
    assert reference_reduced(poly) == want


def test_equality_pair_rows_are_both_equalities():
    # The segment [-1, 1] x {0}; the diagonal row touches nothing.
    poly = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                    [1, 1, 0, 0, 5])
    _checked(poly, ((0, 1), (2, 3)))


def test_tighter_parallel_row_is_kept():
    # Rows 0 and 1 are parallel with offsets 1e-10 apart: within the
    # incidence slack they cut the same facet, and the tighter (earlier)
    # row stays, not the later one.
    poly = Polytope([[1, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                    [1, 1 + 1e-10, 1, 1, 1, 3])
    _checked(poly, ((0, 2, 3, 4), ()))


def test_row_touching_at_a_vertex_is_no_facet():
    poly = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                    [1, 1, 1, 1, 2])
    _checked(poly, ((0, 1, 2, 3), ()))


def test_octahedron_vertex_meets_four_facets():
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T
    poly = Polytope(signs, np.ones(8))
    _checked(poly, (tuple(range(8)), ()))
    a, _ = poly.halfspaces
    cone = normal_cone_at(poly, [1.0, 0.0, 0.0])
    rows = lambda m: sorted(map(tuple, np.round(m, 12)))
    assert rows(cone.generators) == rows(a[a[:, 0] > 0])


def test_rows_cutting_one_facet_of_a_flat_polytope_keep_the_later():
    # Inside z = 0 both x <= 1 and (x + z) / sqrt(2) <= 1 / sqrt(2) cut
    # the facet x = 1 of the square; the later row is kept.
    poly = Polytope([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                     [0, 0, 1], [0, 0, -1], [1, 0, 1]],
                    [1, 1, 1, 1, 0, 0, 1])
    _checked(poly, ((1, 2, 3, 6), (4, 5)))
    a, _ = poly.halfspaces
    assert np.allclose(a[6], np.array([1.0, 0.0, 1.0]) / math.sqrt(2))


@pytest.mark.parametrize("kind", KINDS)
def test_every_family_has_proper_faces(kind):
    # The property's families are not vacuous: each gives polytopes with
    # faces, and the flat ones give implicit equalities.
    rng = np.random.default_rng(1)
    polys = [_face_polytope(kind, rng, dim) for dim in (1, 2, 3, 4)
             for _ in range(5)]
    assert any(len(p.reduced()[0]) > 2 for p in polys)
    if kind in ("flat", "flat_hull"):
        assert all(p.reduced()[1] for p in polys)

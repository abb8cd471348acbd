import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.spatial import ConvexHull

from adjcone.geometry import (
    CONE,
    FEAS,
    GEN,
    ZERO,
    ConeSectionError,
    EmptyPolytopeError,
    GeneratedCone,
    GeometryError,
    Polytope,
    ScaleBoundError,
    UnboundedPolytopeError,
    _min_norm_point,
    grid_points,
    normal_cone_at,
    polar_extreme_rays,
    polytope_distance,
    weighted_minkowski,
)
from adjcone.lp import solve_lp
from adjcone.serialization import polytope_to_dict
from helpers import (
    assert_projection_kkt,
    band_edge_points,
    is_inside_point,
    same_set,
)

INTERVAL = Polytope.from_box([-1.0], [0.0])
UNIT_SQUARE = Polytope.from_box([-1, -1], [1, 1])


def random_polytope(seed, facets=10, dim=3):
    """Tangent planes to the unit sphere at random directions."""
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(facets, dim))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    # Ensure boundedness by adding a box.
    a = np.vstack([normals, np.eye(dim), -np.eye(dim)])
    b = np.concatenate([np.ones(facets), 2 * np.ones(2 * dim)])
    return Polytope(a, b)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(EmptyPolytopeError):
            Polytope([[1.0], [-1.0]], [-1.0, -1.0])

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedPolytopeError):
            Polytope([[1.0, 0.0]], [1.0])

    @pytest.mark.parametrize("a, b, field", [
        ([[np.nan]], [1.0], "a"),
        ([[1.0], [-1.0]], [np.inf, 1.0], "b"),
        ([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, np.nan, 1.0], "b"),
    ], ids=["nan-row", "inf-offset", "nan-offset-non-box"])
    def test_non_finite_data_rejected(self, a, b, field):
        # Unchecked, the NaN row was dropped as a zero row, the infinite
        # offset reached the box detection and the NaN offset the LP.
        with pytest.raises(ValueError,
                           match=f"Polytope: {field} has a non-finite entry"):
            Polytope(a, b)

    def test_from_vertices_memory_is_linear_in_points(self):
        # A full SVD of the centred points allocated the unused N x N
        # factor U: a 72 MB peak for these 3,000 points.
        pts = np.random.default_rng(0).normal(size=(3000, 2))
        Polytope.from_vertices(pts[:10])  # import scipy.spatial first
        tracemalloc.start()
        try:
            Polytope.from_vertices(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_bad_cached_vertex_rejected(self):
        with pytest.raises(ValueError):
            Polytope.from_box([0.0], [1.0]).__class__(
                [[1.0], [-1.0]], [1.0, 0.0], vertices=[[2.0]])


class TestContains:
    def test_interior_point(self):
        box = Polytope.from_box([-1.0], [1.0])
        assert box.contains([0.5], tol=1e-9)

    def test_within_slack(self):
        box = Polytope.from_box([-1.0], [1.0])
        assert box.contains([1.0 + 1e-12], tol=1e-9)

    def test_violation(self):
        assert not UNIT_SQUARE.contains([2.0, 0.0], tol=1e-9)


class TestProject:
    def test_interval_endpoint(self):
        p, d = INTERVAL.project([0.5])
        assert p == pytest.approx([0.0])
        assert d == pytest.approx(0.5)

    def test_corner(self):
        p, d = UNIT_SQUARE.project([2.0, 2.0])
        assert p == pytest.approx([1.0, 1.0])
        assert d == pytest.approx(math.sqrt(2.0))

    def test_random_3d_against_grid_oracle(self):
        poly = random_polytope(3)
        x = np.array([2.5, 1.8, -2.2])
        _, d = poly.project(x)
        axes = [np.linspace(-2.2, 2.2, 90)] * 3
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
        members = grid[poly.contains_many(grid)]
        d_grid = np.linalg.norm(members - x, axis=1).min()
        assert d <= d_grid + 1e-9
        assert abs(d - d_grid) < 1e-1  # grid resolution bound
        # refine locally around the projection to certify 1e-3
        p, _ = poly.project(x)
        local = p + np.stack(np.meshgrid(*[np.linspace(-0.05, 0.05, 41)] * 3,
                                         indexing="ij"), -1).reshape(-1, 3)
        local = local[poly.contains_many(local)]
        d_local = np.linalg.norm(local - x, axis=1).min()
        assert abs(d - d_local) < 1e-3

    def test_projection_optimality_and_characterization(self):
        rng = np.random.default_rng(11)
        poly = random_polytope(5)
        for x in rng.normal(scale=2.5, size=(20, 3)):
            p, d = poly.project(x)
            samples = poly.sample(rng, 60)
            dists = np.linalg.norm(samples - x, axis=1)
            assert d <= dists.min() + 1e-9
            inner = (samples - p) @ (x - p)
            assert inner.max() <= 1e-9

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4),
           facets=st.integers(1, 12), scale=st.floats(0.1, 5.0))
    def test_kkt_on_random_polytopes(self, seed, dim, facets, scale):
        poly = random_polytope(seed, facets, dim)
        x = scale * np.random.default_rng(seed).normal(size=dim)
        p, d = poly.project(x)
        if poly.contains(x):
            assert d == 0.0 and np.array_equal(p, x)
            return
        assert_projection_kkt(poly, x, p, d)

    def test_min_norm_point_matches_active_set(self):
        # these polytopes never reach the fallback, so call it directly
        rng = np.random.default_rng(17)
        for seed, dim in [(1, 2), (2, 3), (3, 3), (4, 4)]:
            poly = random_polytope(seed, 8, dim)
            for x in rng.normal(scale=3.0, size=(5, dim)):
                if poly.contains(x):
                    continue
                expected = poly._project_active_set(x)
                assert expected is not None
                got = x + _min_norm_point(poly.vertices() - x)
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("poly, x", [
        # An explicit equality pair (rows a, -a, offset 0): a flat polytope.
        (Polytope(np.vstack([[[0.7458, 0.6486, -0.1519],
                              [-0.7458, -0.6486, 0.1519],
                              [0.9606, -0.278, 0.0063],
                              [0.7977, -0.1494, -0.5842]],
                             np.eye(3), -np.eye(3)]),
                  np.concatenate([[0.0, 0.0, 0.357, 0.293], np.ones(6)])),
         [-24.2, 96.5, -9.8]),
        # The hull of five points: full-dimensional, six facets.
        (Polytope.from_vertices([[0.852, 0.374, -0.734], [-1.226, -0.773, 1.599],
                                 [0.249, -0.937, -0.945], [-1.255, -0.536, 1.153],
                                 [0.175, 0.186, 0.326]]),
         [83.5, 2.9, -55.0]),
        # A 4-D hull of six points, about 99.5 away.
        (Polytope.from_vertices([[0.15, -0.687, -0.171, -0.284],
                                 [-0.27, 0.616, -0.446, -0.116],
                                 [-0.862, 1.234, 1.753, 1.987],
                                 [0.847, -0.003, -0.897, -1.019],
                                 [-0.043, -1.206, 0.797, 0.287],
                                 [-1.306, -0.18, 0.887, 1.194]]),
         [28.441, 74.75, 40.709, -44.117]),
    ], ids=["flat-equality-pair", "full-dimensional-hull", "full-dimensional-4d-hull"])
    def test_far_point_falls_back_to_min_norm_point(self, poly, x):
        # From a point ~100 away the active-set iteration ends without a
        # KKT point, and project falls back to the min-norm-point kernel.
        x = np.asarray(x)
        assert poly._project_active_set(x) is None
        p, d = poly.project(x)
        assert_projection_kkt(poly, x, p, d)


def flat_polytope(seed, dim):
    """``random_polytope`` cut by an explicit equality pair ``a``, ``-a``
    with offset 0, a hyperplane through the origin inside it: a flat
    polytope."""
    normal = np.random.default_rng(seed).normal(size=dim)
    normal /= np.linalg.norm(normal)
    a, b = random_polytope(seed, 6, dim).halfspaces
    return Polytope(np.vstack([normal, -normal, a]),
                    np.concatenate([[0.0, 0.0], b]))


def hull_polytope(seed, dim, rank):
    """``from_vertices`` hull of random points spanning ``rank`` dimensions."""
    rng = np.random.default_rng(seed)
    spread = rng.normal(size=(dim + 4, rank)) @ rng.normal(size=(rank, dim))
    return Polytope.from_vertices(spread + rng.normal(size=dim))


WITHIN_KINDS = {
    "random": lambda seed, dim: random_polytope(seed, 10, dim),
    "flat": flat_polytope,
    "hull": lambda seed, dim: hull_polytope(seed, dim, dim),
    "flat-hull": lambda seed, dim: hull_polytope(seed, dim, dim - 1),
}


class TestWithinDistance:
    """``within_distance`` is ``project_many(...)[1] <= radius`` bit for
    bit; the rows sit where the bounds are tight or loose, and radii below
    ``FEAS`` put rows that the scalar path calls distance 0 beyond them."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(sorted(WITHIN_KINDS)),
           seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4),
           radius=st.sampled_from([3e-10, 2e-9, 1e-6, 0.05, 0.7, 2.5]))
    def test_matches_projection(self, kind, seed, dim, radius):
        poly = WITHIN_KINDS[kind](seed, dim)
        rng = np.random.default_rng(seed)
        pts = np.vstack([band_edge_points(poly, radius, rng),
                         rng.normal(scale=2.0, size=(20, dim))])
        got = poly.within_distance(pts, radius)
        assert got.dtype == bool
        assert np.array_equal(got, poly.project_many(pts)[1] <= radius)

    def test_rows_within_feas_count_as_distance_zero(self):
        # The scalar path projects a row within FEAS of P to itself, so
        # at a radius below FEAS these rows are within it although their
        # true distance exceeds it.
        poly = random_polytope(3)
        pts = band_edge_points(poly, 5e-10, np.random.default_rng(0))
        assert (poly.project_many(pts)[1] == 0.0).all()
        assert poly.within_distance(pts, 5e-10).all()


class TestVertices:
    def test_unit_square(self):
        verts = {tuple(v) for v in UNIT_SQUARE.vertices()}
        assert verts == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_interval(self):
        verts = sorted(v[0] for v in INTERVAL.vertices())
        assert verts == pytest.approx([-1.0, 0.0])

    def test_hexagon_vertex_count_matches_facets(self):
        rng = np.random.default_rng(23)
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=6))
        # keep angles separated so all six lines are facets
        while np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))) < 0.3:
            angles = np.sort(rng.uniform(0, 2 * np.pi, size=6))
        a = np.column_stack([np.cos(angles), np.sin(angles)])
        hexagon = Polytope(a, np.ones(6))
        verts = hexagon.vertices()
        assert len(verts) == 6
        # cross-check with the hull of a dense boundary sample (LP support
        # points)
        dirs = np.column_stack([np.cos(np.linspace(0, 2 * np.pi, 720)),
                                np.sin(np.linspace(0, 2 * np.pi, 720))])
        a, b = hexagon.halfspaces
        boundary = np.array([solve_lp(-d, a_ub=a, b_ub=b).x for d in dirs])
        hull = ConvexHull(boundary)
        assert len(hull.vertices) == 6

    def test_dim_bound(self):
        box5 = Polytope.from_box([0.0] * 5, [1.0] * 5)
        with pytest.raises(ScaleBoundError):
            box5.vertices()

    def test_hrep_vrep_duality(self):
        poly = random_polytope(9)
        verts = poly.vertices()
        hull = ConvexHull(verts)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2.3, 2.3, size=(1000, 3))
        h_member = poly.contains_many(pts, tol=1e-9)
        eqs = hull.equations
        v_member = np.all(pts @ eqs[:, :3].T + eqs[:, 3] <= 1e-9, axis=1)
        assert np.array_equal(h_member, v_member)


class TestFaces:
    def test_unit_square_faces(self):
        faces = UNIT_SQUARE.proper_faces()
        assert len(faces) == 8
        dims = sorted(f.dim for f in faces)
        assert dims == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_interval_faces(self):
        faces = Polytope.from_box([0.0], [1.0]).proper_faces()
        assert len(faces) == 2

    def test_triangle_faces(self):
        tri = Polytope([[0, -1], [1, 1], [-1, 1]], [0, 1, 1])
        assert len(tri.proper_faces()) == 6

    def test_cube_faces(self):
        cube = Polytope.from_box([0, 0, 0], [1, 1, 1])
        assert len(cube.proper_faces()) == 26  # 6 + 12 + 8


class TestInsidePoint:
    def test_square(self):
        assert is_inside_point(UNIT_SQUARE, [0.0, 0.0])
        assert not is_inside_point(UNIT_SQUARE, [1.0, 0.0])

    def test_segment_relative_interior(self):
        seg = Polytope.from_vertices([[0.0, 0.0], [1.0, 0.0]])
        assert is_inside_point(seg, [0.5, 0.0])
        assert not is_inside_point(seg, [0.0, 0.0])
        assert not is_inside_point(seg, [0.5, 0.2])

    def test_definitional_cross_check(self):
        # inside <=> in the polytope and on no proper face
        poly = Polytope([[0, -1], [1, 1], [-1, 1]], [0, 1, 1])
        a, b = poly.halfspaces
        faces = poly.proper_faces()
        rng = np.random.default_rng(2)
        pts = np.vstack([poly.sample(rng, 120), poly.vertices(),
                         rng.uniform(-1.5, 1.5, size=(40, 2))])
        for x in pts:
            on_face = False
            for face in faces:
                if poly.contains(x, 1e-9) and all(
                        abs(a[i] @ x - b[i]) <= 1e-9 for i in face.active):
                    on_face = True
                    break
            expected = poly.contains(x, 1e-9) and not on_face
            assert is_inside_point(poly, x) == expected


class TestGridPoints:
    def test_lattice_keeps_box_ends_and_members_only(self):
        pts = grid_points(Polytope.from_box([0.0, -1.0], [1.0, 1.0]), 0.5)
        assert sorted(set(pts[:, 0])) == [0.0, 0.5, 1.0]
        assert sorted(set(pts[:, 1])) == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert len(pts) == 15
        tri = Polytope([[0, -1], [1, 1], [-1, 1]], [0, 1, 1])
        axes = [np.linspace(-1.0, 1.0, 21), np.linspace(0.0, 1.0, 11)]
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
        np.testing.assert_array_equal(grid_points(tri, 0.1),
                                      lattice[tri.contains_many(lattice)])


class TestMinkowski:
    def test_identity(self):
        out = weighted_minkowski([(1.0, UNIT_SQUARE)])
        assert same_set(out, UNIT_SQUARE)

    def test_singletons(self):
        s1 = Polytope.from_vertices([[0.25]])
        s2 = Polytope.from_vertices([[0.3]])
        out = weighted_minkowski([(0.6, s1), (0.4, s2)])
        np.testing.assert_allclose(out.vertices(), [[0.27]], atol=1e-12)

    def test_intervals_match_interval_arithmetic(self):
        a = Polytope.from_box([0.0], [1.0])
        b = Polytope.from_box([2.0], [4.0])
        out = weighted_minkowski([(0.5, a), (0.5, b)])
        lo, hi = out.bounding_box()
        # interval arithmetic oracle: 0.5*[0,1] + 0.5*[2,4] = [1, 2.5]
        assert lo == pytest.approx([1.0])
        assert hi == pytest.approx([2.5])

    def test_weight_sum_checked(self):
        with pytest.raises(ValueError):
            weighted_minkowski([(0.5, INTERVAL), (0.6, INTERVAL)])

    def test_segment_combination(self):
        seg1 = Polytope.from_vertices([[1.0, 0.0], [0.0, 1.0]])
        seg2 = Polytope.from_vertices([[0.5, 0.0], [0.0, 0.5]])
        out = weighted_minkowski([(0.5, seg1), (0.5, seg2)])
        # sums of vertex picks, all on the diagonal band
        assert out.contains([0.75, 0.0])
        assert out.contains([0.375, 0.375])


class TestGeneratedCone:
    def test_axis_cone_membership(self):
        cone = GeneratedCone.from_rays([[1, 0], [0, 1]])
        assert cone.contains([1, 1], tol=1e-9)
        assert not cone.contains([0, -1], tol=1e-9)

    def test_single_ray(self):
        cone = GeneratedCone.from_rays([[1.0, 0.0]])
        assert not cone.contains([0.0, 1.0], tol=1e-9)
        assert cone.contains([3.0, 0.0], tol=1e-9)

    def test_two_by_two_nonnegative_system(self):
        cone = GeneratedCone.from_rays([[1, 0], [1, 1]])
        # oracle: solve [1 1; 0 1] t = (2,1) -> t = (1,1) >= 0
        t = np.linalg.solve(np.array([[1.0, 1.0], [0.0, 1.0]]), [2.0, 1.0])
        assert (t >= 0).all()
        assert cone.contains([2, 1], tol=1e-9)

    def test_zero_vector_in_any_cone(self):
        cone = GeneratedCone.from_rays([[1.0]])
        assert cone.contains([0.0], tol=1e-9)

    def test_section_scales_generators(self):
        cone = GeneratedCone.from_rays([[1.0]])
        sec = cone.section(np.array([1.0]), 0.25)
        np.testing.assert_allclose(sec.vertices(), [[0.25]], atol=1e-12)

    def test_section_segment(self):
        cone = GeneratedCone.from_rays([[1, 0], [0, 1]])
        sec = cone.section(np.array([1.0, 1.0]), 1.0)
        verts = sorted(map(tuple, np.round(sec.vertices(), 9)))
        assert verts == [(0.0, 1.0), (1.0, 0.0)]

    def test_section_scaling_invariance(self):
        sec = GeneratedCone.from_rays([[2.0, 0.0]]).section(
            np.array([1.0, 0.0]), 0.5)
        np.testing.assert_allclose(sec.vertices(), [[0.5, 0.0]], atol=1e-12)

    def test_section_rejects_sideways_generator(self):
        cone = GeneratedCone.from_rays([[1, 0], [0, 1]])
        with pytest.raises(ConeSectionError):
            cone.section(np.array([1.0, 0.0]), 1.0)

    def test_section_never_contains_origin(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            rays = rng.normal(size=(4, 3)) + np.array([2.0, 0, 0])
            cone = GeneratedCone.from_rays(rays)
            direction = np.array([1.0, 0.0, 0.0])
            eps = float(rng.uniform(0.1, 1.0))
            if np.any(cone.generators @ direction <= 1e-12):
                continue
            sec = cone.section(direction, eps)
            norms = np.linalg.norm(sec.vertices(), axis=1)
            assert norms.min() >= eps / np.linalg.norm(direction) - 1e-9

    def test_minimal_prunes_interior_ray(self):
        cone = GeneratedCone.from_rays([[1, 0], [0, 1], [1, 1]])
        kept = cone.minimal()
        assert kept.generators.shape[0] == 2

    def test_equality(self):
        a = GeneratedCone.from_rays([[1, 0], [0, 1]])
        b = GeneratedCone.from_rays([[0, 1], [1, 0], [2, 2]])
        assert a.equals(b, tol=1e-9)


class TestPolarExtremeRays:
    def test_against_sampled_direction_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            verts = rng.normal(size=(6, 2)) - np.array([3.0, 0.0])
            rays = polar_extreme_rays(verts)
            cone = GeneratedCone.from_rays(rays)
            for _ in range(200):
                u = rng.normal(size=2)
                u /= np.linalg.norm(u)
                truth = np.all(verts @ u <= 1e-9)
                assert cone.contains(u, tol=1e-7) == truth or (
                    # boundary directions may flip either way within slack
                    abs((verts @ u).max()) < 1e-7)


def test_polytope_distance():
    a = Polytope.from_box([0, 0], [1, 1])
    b = Polytope.from_box([3, 0], [4, 1])
    assert polytope_distance(a, b) == pytest.approx(2.0)
    # A gap that narrows from 1.01 to 1.0 over a length of 10: an
    # iteration that creeps along it stops short of the nearest pair.
    wedge = Polytope.from_vertices([[0, 2.01], [10, 2], [10, 3], [0, 3]])
    assert abs(polytope_distance(Polytope.from_box([0, 0], [10, 1]), wedge)
               - 1.0) <= 1e-9
    # Serialization writes a vertex cache as "V": the distance fills none.
    assert "V" not in polytope_to_dict(a) and "V" not in polytope_to_dict(b)


def slsqp_distance(first, second):
    """``min |u - v|`` over ``u in first``, ``v in second``, by SLSQP on
    the two H-representations (no vertex enumeration)."""
    n = first.dim
    (a1, b1), (a2, b2) = first.halfspaces, second.halfspaces
    rows = np.block([[a1, np.zeros_like(a1)], [np.zeros_like(a2), a2]])
    offsets = np.concatenate([b1, b2])

    def gap(z):
        return z[:n] - z[n:]

    res = minimize(lambda z: gap(z) @ gap(z),
                   np.concatenate([first.chebyshev_center()[0],
                                   second.chebyshev_center()[0]]),
                   jac=lambda z: np.concatenate([2 * gap(z), -2 * gap(z)]),
                   constraints=[{"type": "ineq",
                                 "fun": lambda z: offsets - rows @ z,
                                 "jac": lambda z: -rows}],
                   method="SLSQP", options={"ftol": 1e-13, "maxiter": 1000})
    assert res.success, res.message
    return float(np.linalg.norm(gap(res.x)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["overlapping", "touching", "disjoint"]),
       seed=st.integers(0, 2**32 - 2), dim=st.integers(1, 4))
def test_polytope_distance_matches_slsqp(kind, seed, dim):
    rng = np.random.default_rng(seed)
    first = random_polytope(seed, 6, dim)
    if kind == "touching":
        # A vertex v plus rays of the normal cone at v: a polytope that
        # meets ``first`` in v only.
        v = first.vertices()[rng.integers(len(first.vertices()))]
        a, b = first.halfspaces
        active = a[a @ v >= b - 1e-9]
        rays = rng.uniform(0.1, 1.0, size=(dim + 1, len(active))) @ active
        second = Polytope.from_vertices(np.vstack([v, v + rays]))
    else:
        # Each holds the unit ball about its center and lies in the box
        # of half-width 2 about it: a shift of 0.5 overlaps, 9 is apart.
        u = rng.normal(size=dim)
        shift = (0.5 if kind == "overlapping" else 9.0) * u / np.linalg.norm(u)
        a, b = random_polytope(seed + 1, 6, dim).halfspaces
        second = Polytope(a, b + a @ shift)
    got = polytope_distance(first, second)
    # SLSQP squares the distance, so at distance 0 it is good to ~1e-7.
    assert abs(got - slsqp_distance(first, second)) <= 1e-6
    if kind != "disjoint":
        assert got <= 1e-9
    else:
        assert got >= 9.0 - 4.0 * math.sqrt(dim)


def test_normal_cone_at_edge_and_corner():
    cone = normal_cone_at(UNIT_SQUARE, [1.0, 0.0])
    np.testing.assert_allclose(cone.generators, [[1.0, 0.0]], atol=1e-12)
    corner = normal_cone_at(UNIT_SQUARE, [1.0, 1.0])
    assert corner.generators.shape[0] == 2
    assert normal_cone_at(UNIT_SQUARE, [0.2, -0.3]).is_zero


def test_fixed_tolerances():
    assert (FEAS, GEN, CONE, ZERO) == (1e-9, 1e-9, 1e-6, 1e-3)
    assert ZERO > CONE


def test_minkowski_split_weights_idempotent():
    # 0.5 P + 0.5 P = P for convex P
    tri = Polytope([[0, -1], [1, 1], [-1, 1]], [0, 1, 1])
    out = weighted_minkowski([(0.5, tri), (0.5, tri)])
    assert same_set(out, tri)


def test_cone_section_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(10):
        rays = rng.normal(size=(3, 2)) + np.array([2.5, 0.0])
        cone = GeneratedCone.from_rays(rays)
        direction = np.array([1.0, 0.0])
        if np.any(cone.generators @ direction <= 1e-9):
            continue
        section = cone.section(direction, 0.7)
        rebuilt = GeneratedCone.from_rays(section.vertices())
        assert rebuilt.equals(cone, tol=1e-7)


def test_minkowski_scale_bound():
    # product of vertex counts beyond the desk-scale cap is rejected
    box = Polytope.from_box([0.0] * 4, [1.0] * 4)  # 16 vertices
    terms = [(1.0 / 5, box)] * 5  # 16^5 > 1e5
    with pytest.raises(ScaleBoundError):
        weighted_minkowski(terms)


def test_generated_cone_rejects_tiny_generator():
    with pytest.raises(ValueError):
        GeneratedCone([[1e-12, 0.0]])


_SQUARE = Polytope.from_box([-1.0, -1.0], [1.0, 1.0])
_SQUARE_A, _SQUARE_B = _SQUARE.halfspaces


@pytest.mark.parametrize("build, error, message", [
    (lambda: weighted_minkowski([]), ValueError,
     "empty Minkowski combination"),
    (lambda: weighted_minkowski([(-0.5, _SQUARE), (1.5, _SQUARE)]), ValueError,
     "Minkowski weights must be nonnegative"),
    (lambda: weighted_minkowski([(0.5, _SQUARE),
                                 (0.5, Polytope.from_box([0.0], [1.0]))]),
     ValueError, "Minkowski terms must share a dimension"),
    (lambda: GeneratedCone([]), ValueError,
     "zero cone needs an explicit dimension"),
    (lambda: GeneratedCone([[1.0, 0.0]], dim=3), ValueError,
     "generator dimension mismatch"),
    (lambda: GeneratedCone([[1.0, 0.0]]).section([1.0, 0.0], 0.0), ValueError,
     "section offset must be positive"),
    (lambda: GeneratedCone([[1.0, 0.0]]).section([1.0, 0.0], -1.0), ValueError,
     "section offset must be positive"),
    (lambda: GeneratedCone([], dim=2).section([1.0, 0.0], 1.0),
     ConeSectionError, "the zero cone has no section"),
    (lambda: polar_extreme_rays(np.zeros((0, 2)), dim=2), GeometryError,
     "no directions given"),
    (lambda: polar_extreme_rays([[1.0, 0.0], [-1.0, 0.0]]), GeometryError,
     "directions do not span the space"),
    (lambda: Polytope(_SQUARE_A, _SQUARE_B[:3]), ValueError,
     "halfspace matrix and offset vector disagree"),
    (lambda: Polytope(np.zeros((0, 2)), []), ValueError,
     "a polytope needs at least one halfspace"),
    (lambda: Polytope(_SQUARE_A, _SQUARE_B, vertices=[[0.0], [1.0]]),
     ValueError, "cached vertices have the wrong dimension"),
], ids=["minkowski-empty", "minkowski-negative-weight",
        "minkowski-mixed-dims", "cone-zero-without-dim",
        "cone-dim-mismatch", "section-zero-offset", "section-negative-offset",
        "section-zero-cone", "polar-no-directions", "polar-no-span",
        "polytope-row-count", "polytope-no-rows", "polytope-vertex-dim"])
def test_input_checks(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value).startswith(message)

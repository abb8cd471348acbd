import hashlib
import math

import numpy as np
import pytest

from adjcone import normal_op
from adjcone.geometry import GeneratedCone, GeometryError, Polytope
from adjcone.normal_op import (
    Atlas,
    CoverageError,
    LocalChart,
    adjusted_normal_cone,
    build_atlas,
    build_chart,
    closedness_probe,
    global_base,
    quasimonotonicity_probe,
    strict_normal_cone,
    usc_probe,
)
from adjcone.quasiconvex import ArgminError, DomainError, StepLevelFunction
from helpers import chart_base, normalized_base, same_set, stable_probe_points


def polar_oracle(f, x, cone, rng, trials=300):
    """Sampled-direction check: u belongs to the strict normal cone iff
    every vertex of the strict sublevel set sits on the non-positive side."""
    verts = f.strict_sublevel(f.evaluate(x)).polytope.vertices()
    for _ in range(trials):
        u = rng.normal(size=f.dim)
        u /= np.linalg.norm(u)
        margin = (verts - x) @ u
        if abs(margin.max()) < 1e-7:
            continue  # boundary direction, tolerance may flip it
        assert cone.contains(u, tol=1e-7) == bool(margin.max() <= 0)


class TestStrictNormalCone:
    def test_plateau_ray(self, step1d):
        cone = strict_normal_cone(step1d, [0.5])
        np.testing.assert_allclose(cone.generators, [[1.0]])

    def test_corner_polar_strictly_larger_than_facet_cone(self, sq2d):
        cone = strict_normal_cone(sq2d, [2.0, 2.0])
        rng = np.random.default_rng(4)
        polar_oracle(sq2d, [2.0, 2.0], cone, rng)
        # the facet cone is a proper subset of the polar
        facet_cone = GeneratedCone.from_rays([[1, 0], [0, 1]])
        assert cone.contains([1, 0], 1e-9) and cone.contains([0, 1], 1e-9)
        assert cone.contains([-0.31622777, 0.9486833], 1e-6)
        assert not facet_cone.contains([-0.31622777, 0.9486833], 1e-6)

    def test_face_point_contains_projection_ray(self, sq2d):
        cone = strict_normal_cone(sq2d, [2.0, 0.0])
        assert cone.contains([1.0, 0.0], 1e-9)
        rng = np.random.default_rng(6)
        polar_oracle(sq2d, [2.0, 0.0], cone, rng)

    def test_argmin_signalled(self, step1d):
        with pytest.raises(ArgminError):
            strict_normal_cone(step1d, [-0.5])


class TestAdjustedNormalCone:
    def test_plateau_single_ray(self, step1d):
        cone = adjusted_normal_cone(step1d, [0.5])
        np.testing.assert_allclose(cone.generators, [[1.0]])

    def test_corner_two_facets(self, sq2d):
        cone = adjusted_normal_cone(sq2d, [2.0, 2.0])
        expected = GeneratedCone.from_rays([[1, 0], [0, 1]])
        assert cone.equals(expected, tol=1e-7)

    def test_argmin_interior_zero(self, step1d):
        assert adjusted_normal_cone(step1d, [-0.5]).is_zero

    def test_argmin_boundary_facet(self, step1d):
        cone = adjusted_normal_cone(step1d, [-1.0])
        np.testing.assert_allclose(cone.generators, [[-1.0]])

    def test_definition_on_samples(self, sq2d):
        # every generator makes nonpositive products over the adjusted set
        rng = np.random.default_rng(8)
        for x in [[2.0, 2.0], [1.5, 0.0], [2.0, 0.7], [0.0, 1.8]]:
            x = np.array(x)
            cone = adjusted_normal_cone(sq2d, x)
            value = sq2d.evaluate(x)
            rho = sq2d.rho(x)
            sub = sq2d.sublevel(value).polytope
            strict = sq2d.strict_sublevel(value).polytope
            pts = sub.sample(rng, 400)
            _, dist = strict.project_many(pts)
            members = pts[dist <= rho + 1e-9]
            slack = (members - x) @ cone.generators.T
            assert slack.max() <= 1e-6

    def test_contained_in_strict_cone(self, step1d, sq2d):
        # the strict polar contains the adjusted cone at regular points
        rng = np.random.default_rng(12)
        for f in (step1d, sq2d):
            for x in f.domain.sample(rng, 40):
                if f.in_argmin(x) or math.isinf(f.evaluate(x)):
                    continue
                adj = adjusted_normal_cone(f, x)
                strict = strict_normal_cone(f, x)
                for g in adj.generators:
                    assert strict.contains(g, tol=1e-6)


class TestNormalizedBase:
    def test_single_ray(self, step1d):
        base = normalized_base(step1d, [0.5])
        np.testing.assert_allclose(base.vertices(), [[1.0]])

    def test_corner_segment(self, sq2d):
        base = normalized_base(sq2d, [2.0, 2.0])
        verts = sorted(map(tuple, np.round(base.vertices(), 9)))
        assert verts == [(0.0, 1.0), (1.0, 0.0)]

    def test_face_singleton(self, sq2d):
        base = normalized_base(sq2d, [2.0, 0.0])
        np.testing.assert_allclose(base.vertices(), [[1.0, 0.0]], atol=1e-12)


class TestBuildChart:
    def test_plateau_chart_numbers(self, step1d):
        chart = build_chart(step1d, [0.5])
        assert chart.level == pytest.approx(0.5)
        np.testing.assert_allclose(chart.anchor, [-0.5])
        # radius = min(0.9 * dist(0.5, [-1,0]), cheb_radius/2) = min(0.45, 0.25)
        assert chart.radius == pytest.approx(0.25)
        np.testing.assert_allclose(chart.normal, [1.0])

    def test_upper_chart_numbers(self, step1d):
        chart = build_chart(step1d, [1.5])
        assert chart.level == pytest.approx(1.5)
        np.testing.assert_allclose(chart.anchor, [0.0])
        assert chart.radius == pytest.approx(0.45)  # min(0.45, 0.5)

    def test_argmin_rejected(self, step1d):
        with pytest.raises(ArgminError):
            build_chart(step1d, [-0.5])

    def test_invariants(self, step1d, sq2d):
        # doubled ball around the anchor inside the strict set, ball clear
        # of the sublevel set at the chart level
        for f, z in [(step1d, [0.5]), (step1d, [1.5]), (sq2d, [1.6, 0.2])]:
            chart = build_chart(f, z)
            strict = f.strict_sublevel(f.evaluate(np.asarray(z))).polytope
            a, b = strict.halfspaces
            inner_radius = float((b - a @ chart.anchor).min())
            assert inner_radius >= 2 * chart.radius - 1e-9
            level_set = f.sublevel(chart.level).polytope
            assert level_set.project(chart.center)[1] > chart.radius


class TestChartBase:
    def test_section_values(self, step1d):
        chart = build_chart(step1d, [0.5])
        np.testing.assert_allclose(chart_base(chart, step1d, [0.5]).vertices(),
                                   [[0.25]])
        np.testing.assert_allclose(chart_base(chart, step1d, [0.6]).vertices(),
                                   [[0.25]])

    def test_upper_section_value(self, step1d):
        chart = build_chart(step1d, [1.5])
        # eps / normal = 0.45 / 1.5
        np.testing.assert_allclose(chart_base(chart, step1d, [1.5]).vertices(),
                                   [[0.3]])

    def test_outside_ball_rejected(self, step1d):
        chart = build_chart(step1d, [0.5])
        with pytest.raises(ValueError):
            chart_base(chart, step1d, [1.5])

    def test_inside_dual_ball(self, sq2d):
        chart = build_chart(sq2d, [1.6, 0.3])
        base = chart_base(chart, sq2d, [1.6, 0.3])
        assert np.linalg.norm(base.vertices(), axis=1).max() <= 1 + 1e-9


@pytest.fixture(scope="module")
def atlas1d(step1d):
    return build_atlas(step1d, Polytope.from_box([0.25], [1.75]), 0.25,
                       argmin_margin=0.25)


@pytest.fixture(scope="module")
def atlas1d_stable(step1d):
    # capped radii leave single-chart zones around the grid centers
    return build_atlas(step1d, Polytope.from_box([0.25], [1.75]), 0.3,
                       argmin_margin=0.25, radius_cap=0.225)


@pytest.fixture(scope="module")
def atlas2d(sq2d):
    region = Polytope.from_box([1.2, -0.5], [1.9, 0.5])
    return build_atlas(sq2d, region, 0.2, argmin_margin=0.15,
                       radius_cap=0.15)


def random_atlas(dim, seed, cover_step, count=24):
    """Charts at seeded full-precision centers and radii over the box
    [-1, 1]^dim: the kernel's norms then run on arbitrary bits, not on
    lattice offsets."""
    rng = np.random.default_rng(seed)
    charts = tuple(LocalChart(center=rng.uniform(-1.0, 1.0, dim), level=0.5,
                              anchor=np.zeros(dim),
                              radius=float(rng.uniform(0.2, 0.6)))
                   for _ in range(count))
    return Atlas(charts, Polytope.from_box(-np.ones(dim), np.ones(dim)),
                 cover_step)


@pytest.fixture(scope="module")
def atlas3d_random():
    return random_atlas(3, 3, 1.0)


@pytest.fixture(scope="module")
def atlas4d_random():
    return random_atlas(4, 4, 1.5)


def kernel_probe_rows(atlas):
    """Verification grid, the grid shifted off the lattice, and chart rims
    along the axes and along seeded directions."""
    grid = atlas.verification_grid()
    dim = grid.shape[1]
    axis_rims = [c.center + sign * c.radius * axis for c in atlas.charts
                 for sign in (-1.0, 1.0) for axis in np.eye(dim)]
    directions = np.random.default_rng(11).normal(size=(len(atlas.charts), dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    random_rims = atlas.centers + atlas.radii[:, None] * directions
    return np.vstack([grid, grid + 0.3 * atlas.cover_step, axis_rims,
                      random_rims])


class TestAtlas:
    def test_covering_and_partition(self, atlas1d):
        for p in atlas1d.verification_grid():
            idx, w = atlas1d.weights(p)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert (w >= 0).all()
            # supports respected: inactive charts have zero bump
            bumps = atlas1d.bump_values(p)
            for i, c in enumerate(atlas1d.charts):
                if i not in idx:
                    assert bumps[i] == 0.0
                    assert np.linalg.norm(p - c.center) >= c.radius

    @pytest.mark.parametrize("block", [None, 5])
    @pytest.mark.parametrize("name", ["atlas1d", "atlas2d", "atlas3d_random",
                                      "atlas4d_random"])
    def test_kernel_bumps_are_chart_bumps(self, name, block, request,
                                          monkeypatch):
        # The stacked matmul norm must give every bump the bits of the
        # scalar LocalChart.bump (a BLAS whose ddot differs fails here),
        # in the default blocks and in blocks of a single row.
        if block is not None:
            monkeypatch.setattr(normal_op, "_PAIR_BLOCK", block)
        atlas = request.getfixturevalue(name)
        probe = kernel_probe_rows(atlas)
        expected = np.array([[c.bump(p) for c in atlas.charts] for p in probe])
        kernel = np.vstack([np.maximum(gaps, 0.0)
                            for _, gaps in atlas._gap_blocks(probe)])
        assert kernel.tobytes() == expected.tobytes()
        for p, row in zip(probe[::17], expected[::17]):
            assert atlas.bump_values(p).tobytes() == row.tobytes()
        covered = atlas.covers_many(probe)
        assert covered.tolist() == (expected > 0).any(axis=1).tolist()
        assert covered.any() and not covered.all()

    def test_partition_defect_matches_weights(self, atlas1d, atlas2d,
                                              atlas3d_random):
        for atlas in (atlas1d, atlas2d):
            expected = max(abs(float(atlas.weights(p)[1].sum()) - 1.0)
                           for p in atlas.verification_grid())
            assert atlas.partition_defect() == expected
        with pytest.raises(CoverageError, match="no chart covers"):
            atlas3d_random.partition_defect()

    def test_kernel_rejects_wrong_dimension(self, atlas2d):
        with pytest.raises(ValueError, match="1 coordinates, the atlas 2"):
            atlas2d.covers_many([[1.5]])

    def test_region_touching_argmin_rejected(self, step1d):
        with pytest.raises(CoverageError):
            build_atlas(step1d, Polytope.from_box([0.05], [1.0]), 0.25)

    def test_single_chart_zone_weights(self, atlas1d_stable, step1d):
        points = stable_probe_points(atlas1d_stable, margin=1e-3)
        assert len(points) >= 5
        for p in points[:5]:
            idx, w = atlas1d_stable.weights(p)
            assert len(idx) == 1 and w[0] == pytest.approx(1.0)



# sha256 of stable_probe_points output (float64 rows, C order), recorded
# from the per-point loops: (atlas, margin, limit, mesh) -> (rows, digest).
STABLE_POINT_DIGESTS = {
    ("atlas1d_stable", 1e-3, None, None):
        (22, "9e5057beac13a0be883816940177e6978c4f8a84116a524a3c093d2fcbd8a50d"),
    ("atlas2d", 1e-3, 7, None):
        (7, "159a729358f575814ede546da548b2ec7af5ce7b678a008146309534e93e31d8"),
    ("atlas3d_random", 1e-3, None, 0.2):
        (373, "68d81e8087ad632a6289046d6e61056574dfeed16a2298fb31dd30385d6f1888"),
    ("atlas4d_random", 2e-3, 24, None):
        (24, "18b18ba4038ac1deaa04834abcae4d0aea6ad4c076f96622bc9eb2dac6f7d078"),
}


@pytest.mark.parametrize("name, margin, limit, mesh", STABLE_POINT_DIGESTS)
def test_stable_probe_points_pinned(name, margin, limit, mesh, request):
    atlas = request.getfixturevalue(name)
    points = stable_probe_points(atlas, margin=margin, limit=limit, mesh=mesh)
    rows, digest = STABLE_POINT_DIGESTS[name, margin, limit, mesh]
    assert points.shape == (rows, atlas.region.dim)
    assert hashlib.sha256(points.tobytes()).hexdigest() == digest


class TestGlobalBase:
    def test_single_chart_passthrough(self, atlas1d_stable, step1d):
        points = stable_probe_points(atlas1d_stable, margin=1e-3)
        p = points[0]
        result = global_base(atlas1d_stable, step1d, p)
        (i, w), = result.active_charts
        assert w == pytest.approx(1.0)
        expected = chart_base(atlas1d_stable.charts[i], step1d, p)
        assert same_set(result.base, expected)

    def test_weighted_singleton_combination(self, step1d):
        # two 1D charts with bases {0.25} and {0.3} at weights 0.6/0.4
        c1 = build_chart(step1d, [0.5])
        c2 = build_chart(step1d, [1.5])
        b1 = chart_base(c1, step1d, [0.5]).vertices()[0][0]
        b2 = chart_base(c2, step1d, [1.5]).vertices()[0][0]
        assert (0.6 * b1 + 0.4 * b2) == pytest.approx(0.27)

    def test_invariants_on_grid(self, atlas1d, step1d):
        rng = np.random.default_rng(3)
        grid = atlas1d.verification_grid()
        take = grid[rng.choice(len(grid), size=25, replace=False)]
        for p in take:
            result = global_base(atlas1d, step1d, p)  # verify=True inside
            cone = result.cone
            regenerated = GeneratedCone.from_rays(result.base.vertices())
            assert regenerated.equals(cone, tol=1e-6)

    def test_invariants_2d(self, atlas2d, sq2d):
        grid = atlas2d.verification_grid()
        rng = np.random.default_rng(5)
        take = grid[rng.choice(len(grid), size=20, replace=False)]
        for p in take:
            result = global_base(atlas2d, sq2d, p)
            verts = result.base.vertices()
            assert np.linalg.norm(verts, axis=1).max() <= 1 + 1e-9
            assert result.base.project(np.zeros(2))[1] >= 1e-3

    def test_chart_estimate(self, atlas1d, step1d):
        # every strict-cone generator g at points of a chart ball satisfies
        # <g, normal> >= radius * |g|
        rng = np.random.default_rng(7)
        for chart in atlas1d.charts:
            count = 0
            while count < 30:
                offset = rng.uniform(-chart.radius, chart.radius, size=step1d.dim)
                x = chart.center + offset
                if math.isinf(step1d.evaluate(x)) or step1d.in_argmin(x):
                    continue
                count += 1
                cone = strict_normal_cone(step1d, x)
                for g in cone.generators:
                    lhs = float(g @ chart.normal)
                    assert lhs >= chart.radius * np.linalg.norm(g) - 1e-9

    def test_coverage_hole_reported(self, atlas1d, step1d):
        with pytest.raises(CoverageError):
            global_base(atlas1d, step1d, [0.01])


class TestUscProbe:
    def test_constant_map(self):
        fixed = Polytope.from_vertices([[0.5, 0.5]])
        report = usc_probe(lambda x: fixed, [0.0, 0.0], seed=1)
        assert report.passed
        assert max(report.deviations) == 0.0

    def test_plateau_point_locally_constant(self, atlas1d_stable, step1d):
        report = usc_probe(lambda x: global_base(atlas1d_stable, step1d, x),
                           [1.0], seed=2)
        assert report.passed
        assert report.deviations[-1] <= 1e-6
        # monotone down the ladder by construction
        assert all(a >= b - 1e-15 for a, b in
                   zip(report.deviations, report.deviations[1:]))

    def test_injected_discontinuity_fails(self):
        left = Polytope.from_vertices([[0.2]])
        right = Polytope.from_vertices([[0.8]])

        def broken(x):
            return left if np.asarray(x).ravel()[0] <= 1.0 else right

        report = usc_probe(broken, [1.0], seed=3)
        assert not report.passed

    @pytest.mark.parametrize("slope, passed", [(3.0, False), (1e-3, True)])
    @pytest.mark.parametrize("error", [CoverageError, DomainError,
                                       ArgminError, GeometryError])
    def test_holes_are_counted_and_left_out(self, slope, passed, error):
        # The map is undefined where y > 0, half of every ball.  Those
        # samples are holes; the deviations and verdict are those of the
        # rest, as if the holes had returned the reference value itself.
        reference = Polytope.from_box([0.0, 0.0], [1.0, 1.0])

        def moving(p):
            return Polytope.from_box([slope * p[0], 0.0], [1.0, 1.0])

        def holed(p):
            if p[1] > 0.0:
                raise error("no value here")
            return moving(p)

        def filled(p):
            return reference if p[1] > 0.0 else moving(p)

        x = [0.0, 0.0]
        report = usc_probe(holed, x, seed=6)
        want = usc_probe(filled, x, seed=6)
        points = []
        usc_probe(lambda p: points.append(p[1]) or reference, x, seed=6)
        holes = sum(y > 0.0 for y in points[1:])  # points[0] is x
        assert 0 < report.holes == holes < len(points) - 1
        assert want.holes == 0
        assert report.deviations == want.deviations
        assert report.passed == want.passed == passed
        assert report.deviations[0] > 0.0


class TestClosednessProbe:
    def test_level_jump_point(self, step1d):
        verdict = closedness_probe(step1d, [1.0], approach_sequences=60, seed=4)
        assert verdict.passed
        assert verdict.checked > 0

    def test_face_point_2d(self, sq2d):
        verdict = closedness_probe(sq2d, [2.0, 0.0], approach_sequences=40, seed=5)
        assert verdict.passed

    def test_plateau_trivial(self, sq2d):
        verdict = closedness_probe(sq2d, [1.5, 0.0], approach_sequences=30, seed=6)
        assert verdict.passed


def norm_per_pair_pool(f, rng, target):
    """``normal_op._regular_point_pool`` as first written, with a norm for
    each pair of a candidate and the last 40 points kept."""
    pool = []
    per = max(8, target // max(1, len(f.polytopes)))
    for poly in f.polytopes:
        for p in np.vstack([poly.sample(rng, per), poly.vertices()]):
            if not math.isinf(f.evaluate(p)) and not f.in_argmin(p):
                pool.append(p)
    out = []
    for p in pool:
        if all(np.linalg.norm(p - q) > 1e-10 for q in out[-40:]):
            out.append(p)
    return out[: max(target, 1)]


class TestQuasimonotonicityProbe:
    def test_valid_instances_clean(self, step1d, sq2d):
        for f in (step1d, sq2d):
            verdict = quasimonotonicity_probe(f, pair_samples=1000, seed=7)
            assert verdict.passed
            assert verdict.checked > 500

    def test_single_level_has_no_pairs(self):
        f = StepLevelFunction([0.0], [Polytope.from_box([-1.0], [1.0])])
        verdict = quasimonotonicity_probe(f, pair_samples=100, seed=7)
        assert verdict.passed and verdict.checked == 0
        assert verdict.violations == []

    def test_corrupted_instance_violations(self, corrupted1d):
        verdict = quasimonotonicity_probe(corrupted1d, pair_samples=1500, seed=7)
        assert not verdict.passed
        v = verdict.violations[0]
        # the recorded pair is a genuine sign violation
        gap = np.asarray(v["y"]) - np.asarray(v["x"])
        assert v["forward"] > 0 >= v["backward"]
        assert float(np.asarray(v["x_gen"]) @ gap) == pytest.approx(v["forward"])

    @pytest.mark.parametrize("name, gap", [
        *[(name, None) for name in ("step1d", "sq2d", "nested3d", "pentagons2d")],
        *[(f"near-{dim}d", gap) for dim in (1, 2)
          for gap in (5e-11, 7.0710678e-11, 7.0710679e-11, 1e-10,
                      1.00000001e-10, 1.0000002e-10, 2e-10)]])
    def test_point_pool_matches_a_norm_per_pair(self, name, gap, request):
        # The pool takes a norm only for rows within 1e-10 (1 + 1e-6) per
        # coordinate.  The near families put the top level's vertex -gap
        # a distance gap (1-D) or gap * sqrt(2) (2-D) from the middle
        # level's vertex 0, on both sides of the 1e-10 threshold and of
        # the coordinate cut.
        if name.startswith("near"):
            dim = int(name[-2])
            f = StepLevelFunction([0.0, 1.0, 2.0], [
                Polytope.from_box([1.0] * dim, [2.0] * dim),
                Polytope.from_box([0.0] * dim, [3.0] * dim),
                Polytope.from_box([-gap] * dim, [4.0] * dim)])
        else:
            f = request.getfixturevalue(name)
        for seed, target in [(0, 30), (1, 160)]:
            got = normal_op._regular_point_pool(
                f, np.random.default_rng(seed), target)
            want = norm_per_pair_pool(f, np.random.default_rng(seed), target)
            assert [p.tobytes() for p in got] == [p.tobytes() for p in want]

    @pytest.mark.parametrize("n", [1, 2, 7, 137, 160, 1000])
    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    def test_pair_draws_are_the_per_pair_stream(self, n, buffered):
        # The probe draws all its pairs in one call.  That call must give
        # the pairs of one size-2 draw per pair and leave the generator in
        # the same state, a buffered 32-bit half included; a numpy whose
        # bounded-integer stream breaks this fails here first.
        for seed in range(20):
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            if buffered:
                for rng in rngs:
                    rng.integers(0, 10, size=1)
                assert rngs[0].bit_generator.state["has_uint32"] == 1
            want = [rngs[0].integers(0, n, size=2).tolist() for _ in range(1000)]
            got = rngs[1].integers(0, n, size=(1000, 2)).tolist()
            assert got == want
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


class TestSpecProbePoints:
    def test_plateau_interior_locally_constant(self, atlas1d_stable, step1d):
        # 0.5 sits in the single-chart zone of the 0.55 chart
        report = usc_probe(lambda x: global_base(atlas1d_stable, step1d, x),
                           [0.5], seed=11)
        assert report.passed
        assert report.deviations[-1] <= 1e-6

    def test_closedness_from_the_left_of_level_jump(self, step1d):
        # sequences approaching 1.0 from inside the middle plateau keep the
        # positive ray, which belongs to the cone at the jump point
        cone_at_one = adjusted_normal_cone(step1d, [1.0])
        for t in (1e-1, 1e-2, 1e-3, 1e-4):
            cone_left = adjusted_normal_cone(step1d, [1.0 - t])
            for g in cone_left.generators:
                assert cone_at_one.contains(g, tol=1e-9)


class TestPolarOfSamples:
    def test_square_corner(self):
        from adjcone.normal_op import polar_of_samples
        rng = np.random.default_rng(13)
        square = Polytope.from_box([-1, -1], [1, 1])
        pts = np.vstack([square.sample(rng, 300), square.vertices()])
        cone = polar_of_samples(pts, np.array([1.0, 1.0]), dim=2)
        expected = GeneratedCone.from_rays([[1, 0], [0, 1]])
        assert cone.equals(expected, tol=1e-6)

    def test_offset_singleton(self):
        from adjcone.normal_op import polar_of_samples
        # polar of a single offset direction is the closed halfspace cone
        cone = polar_of_samples(np.array([[0.0]]), np.array([1.0]), dim=1)
        assert cone.contains([1.0], 1e-9)
        assert not cone.contains([-1.0], 1e-9)

"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in verbose test listings); tolerances are pinned here, not deferred.
"""

import math
import time

import numpy as np
import pytest

from adjcone.geometry import GeneratedCone, Polytope
from adjcone.gqvi import (
    ConstantOperator,
    GqviInstance,
    MovingPolytope,
    SolverConfig,
    fixed_point_set,
    minimax_value,
    solve,
)
from adjcone.normal_op import (
    build_atlas,
    closedness_probe,
    global_base,
    quasimonotonicity_probe,
    strict_normal_cone,
    usc_probe,
)
from adjcone.quasiconvex import (
    SamplingPlan,
    adjusted_convexity_check,
    analytic_from_name,
    quasiconvexity_check,
)
from adjcone.quasiopt import QuasioptInstance, solve_quasiopt
from helpers import (brute_force_quasiopt, sion_check, stable_probe_points,
                     sublevel_contains)

TOL_SANDWICH = 1e-9
TOL_CONE = 1e-6
TOL_ZERO = 1e-3
TOL_BALL = 1e-9
TOL_ESTIMATE = 1e-9
TOL_PROBE = 1e-6
TOL_SION = 1e-8
TOL_SION_GRID = 1e-3
TOL_RESIDUAL = 1e-6
TOL_OPT = 1e-6


def _passline(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def atlas_step1d(step1d):
    return build_atlas(step1d, Polytope.from_box([0.25], [1.75]), 0.25,
                       argmin_margin=0.25)


@pytest.fixture(scope="module")
def atlas_step1d_stable(step1d):
    return build_atlas(step1d, Polytope.from_box([0.25], [1.75]), 0.3,
                       argmin_margin=0.25, radius_cap=0.225)


@pytest.fixture(scope="module")
def atlas_sq2d(sq2d):
    return build_atlas(sq2d, Polytope.from_box([1.2, -0.6], [1.8, 0.6]), 0.2,
                       argmin_margin=0.2, radius_cap=0.15)


@pytest.fixture(scope="module")
def atlas_3d(nested3d):
    lo0, hi0 = nested3d.polytopes[0].bounding_box()
    center = (lo0 + hi0) / 2
    region = Polytope.from_box(
        [hi0[0] + 0.15, center[1] - 0.2, center[2] - 0.2],
        [hi0[0] + 0.35, center[1] + 0.2, center[2] + 0.2])
    return build_atlas(nested3d, region, 0.1, argmin_margin=0.15,
                       radius_cap=0.09)


@pytest.fixture(scope="module")
def gqvi_hand():
    box = Polytope.from_box([-2.0], [2.0])
    constraint = MovingPolytope(a=[[1.0], [-1.0]], b=[1.0, 1.0],
                                d=[[0.5], [-0.5]], box=box)
    operator = ConstantOperator(Polytope.from_vertices([[1.0]]))
    return GqviInstance(constraint, operator)


@pytest.fixture(scope="module")
def gqvi_box2d():
    box = Polytope.from_box([-2, -2], [2, 2])
    constraint = MovingPolytope(
        a=np.vstack([np.eye(2), -np.eye(2)]), b=[0.5] * 4,
        d=np.vstack([0.5 * np.eye(2), -0.5 * np.eye(2)]), box=box)
    operator = ConstantOperator(
        Polytope.from_vertices([[1.0, 0.0], [0.0, 1.0]]))
    return GqviInstance(constraint, operator)


@pytest.fixture(scope="module")
def gqvi_interval_op():
    # operator values inside one orthant keep the vertex-restricted
    # max-min exact (the inner minimum is linear over the operator there)
    box = Polytope.from_box([-2.0], [2.0])
    constraint = MovingPolytope(a=[[1.0], [-1.0]], b=[1.0, 1.0],
                                d=[[0.5], [-0.5]], box=box)
    operator = ConstantOperator(Polytope.from_box([0.5], [1.5]))
    return GqviInstance(constraint, operator)


def test_criterion_01_sandwich(step1d, sq2d, nested3d):
    """Strict sublevel => adjusted => sublevel over >= 1e3 pairs/instance."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for f in (step1d, sq2d, nested3d):
        lo, hi = f.domain.bounding_box()
        xs = f.domain.sample(rng, 25)
        ys = np.vstack([rng.uniform(lo - 0.2, hi + 0.2, size=(30, f.dim)),
                        f.domain.sample(rng, 15)])
        pairs = 0
        for x in xs:
            value = f.evaluate(x)
            if math.isinf(value):
                continue
            for y in ys:
                pairs += 1
                in_strict = f.strict_level_distance(value, y) <= TOL_SANDWICH
                in_adj = f.adjusted_contains(x, y, tol=TOL_SANDWICH)
                in_sub = sublevel_contains(f, value, y)
                if in_strict:
                    assert in_adj, (x, y)
                if in_adj:
                    assert in_sub, (x, y)
        assert pairs >= 1000
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passline(1, f"sandwich holds on 3 instances ({elapsed:.1f}s)")


def test_criterion_02_equivalence(step1d, sq2d, corrupted1d):
    """Both checks pass on quasiconvex instances, both fail on the
    two-wells and corrupted-nesting instances."""
    started = time.perf_counter()
    two_wells = analytic_from_name("two_wells", Polytope.from_box([-2.0], [2.0]))
    plan = SamplingPlan(points=1200, pairs=80, seed=42)
    outcomes = {}
    for name, f, expected in [("step1d", step1d, True),
                              ("sq2d", sq2d, True),
                              ("two_wells", two_wells, False),
                              ("corrupted", corrupted1d, False)]:
        qc = quasiconvexity_check(f, plan)
        adj = adjusted_convexity_check(f, plan)
        assert qc.passed == expected, f"{name}: quasiconvexity {qc.passed}"
        assert adj.passed == expected, f"{name}: adjusted {adj.passed}"
        if not expected:
            assert (qc.witness is not None) and (adj.witness is not None)
        outcomes[name] = qc.passed
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passline(2, f"equivalence verdicts agree on 4 instances ({elapsed:.1f}s)")


def _criterion_grid(atlas, target=100):
    lo, hi = atlas.region.bounding_box()
    dim = atlas.region.dim
    per_axis = max(2, math.ceil(target ** (1.0 / dim)))
    axes = [np.linspace(lo[k], hi[k], per_axis) for k in range(dim)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim)
    pts = pts[atlas.region.contains_many(pts)]
    assert len(pts) >= target
    return pts


def test_criterion_03_compact_base(step1d, sq2d, nested3d, atlas_step1d,
                                   atlas_sq2d, atlas_3d):
    """Base invariants on a >= 100-point grid of each atlas region."""
    cases = [(step1d, atlas_step1d, 128), (sq2d, atlas_sq2d, 100),
             (nested3d, atlas_3d, 100)]
    checked = 0
    for f, atlas, target in cases:
        for x in _criterion_grid(atlas, target):
            result = global_base(atlas, f, x)
            verts = result.base.vertices()
            assert np.linalg.norm(verts, axis=1).max() <= 1.0 + TOL_BALL
            assert result.base.project(np.zeros(f.dim))[1] >= TOL_ZERO
            regenerated = GeneratedCone.from_rays(verts)
            assert regenerated.equals(result.cone, tol=TOL_CONE)
            checked += 1
    _passline(3, f"compact base invariants at {checked} grid points")


def test_criterion_04_partition_of_unity(atlas_step1d, atlas_step1d_stable,
                                         atlas_sq2d, atlas_3d):
    """Weights sum to one within 1e-12 with supports respected, at every
    verification grid point of every shipped atlas."""
    total = 0
    for atlas in (atlas_step1d, atlas_step1d_stable, atlas_sq2d, atlas_3d):
        for p in atlas.verification_grid():
            idx, w = atlas.weights(p)
            assert abs(float(w.sum()) - 1.0) <= 1e-12
            assert (w >= 0).all()
            bumps = atlas.bump_values(p)
            active = set(int(i) for i in idx)
            for i, chart in enumerate(atlas.charts):
                if i not in active:
                    assert bumps[i] == 0.0
                    assert np.linalg.norm(p - chart.center) >= chart.radius
            total += 1
    _passline(4, f"partition of unity at {total} grid points")


def test_criterion_05_chart_estimate(step1d, sq2d, nested3d, atlas_step1d,
                                     atlas_sq2d, atlas_3d):
    """<g, normal> >= radius * |g| for strict-cone generators at 50 sampled
    in-ball points of every chart."""
    rng = np.random.default_rng(105)
    charts_checked = 0
    for f, atlas in [(step1d, atlas_step1d), (sq2d, atlas_sq2d),
                     (nested3d, atlas_3d)]:
        for chart in atlas.charts:
            count = 0
            attempts = 0
            while count < 50 and attempts < 500:
                attempts += 1
                direction = rng.normal(size=f.dim)
                direction /= np.linalg.norm(direction)
                x = chart.center + chart.radius * direction * rng.uniform()
                if math.isinf(f.evaluate(x)) or f.in_argmin(x):
                    continue
                count += 1
                cone = strict_normal_cone(f, x)
                for g in cone.generators:
                    lhs = float(g @ chart.normal)
                    rhs = chart.radius * float(np.linalg.norm(g))
                    assert lhs >= rhs - TOL_ESTIMATE
            assert count == 50
            charts_checked += 1
    _passline(5, f"chart estimate at 50 points per chart, {charts_checked} charts")


def test_criterion_06_usc_probe(step1d, sq2d, nested3d, atlas_step1d_stable,
                                atlas_sq2d, atlas_3d):
    """Deviation curves non-increasing with terminal <= 1e-6 at >= 20 probe
    points per instance, the plateau boundary point included; the injected
    discontinuity must fail."""
    cases = [(step1d, atlas_step1d_stable, [np.array([1.0])]),
             (sq2d, atlas_sq2d, []),
             (nested3d, atlas_3d, [])]
    for f, atlas, extra in cases:
        points = list(stable_probe_points(atlas, margin=2e-3, limit=24))
        for p in extra:
            points.insert(0, p)
        assert len(points) >= 20
        for x in points[:24]:
            report = usc_probe(lambda q: global_base(atlas, f, q), x,
                               samples_per_radius=12, seed=106,
                               tol_probe=TOL_PROBE)
            assert all(a >= b - 1e-15 for a, b in
                       zip(report.deviations, report.deviations[1:]))
            assert report.deviations[-1] <= TOL_PROBE, x
    jump_left = Polytope.from_vertices([[0.2]])
    jump_right = Polytope.from_vertices([[0.8]])
    broken = lambda x: jump_left if np.asarray(x).ravel()[0] <= 1.0 else jump_right
    assert not usc_probe(broken, [1.0], seed=106).passed
    _passline(6, "usc deviation curves pass; discontinuity double fails")


def test_criterion_07_closedness_and_quasimonotonicity(step1d, sq2d, nested3d,
                                                       corrupted1d):
    """Zero violations over >= 1e3 sequences/pairs per instance; the
    corrupted instance must produce a quasimonotonicity violation."""
    probe_centers = {
        "step1d": [np.array([1.0]), np.array([0.5]), np.array([1.5]),
                   np.array([0.25]), np.array([1.9])],
        "sq2d": [np.array([2.0, 0.0]), np.array([1.5, 0.5]),
                 np.array([2.0, 2.0]), np.array([1.2, -1.1]),
                 np.array([0.0, 1.7])],
    }
    instances = [("step1d", step1d), ("sq2d", sq2d), ("nested3d", nested3d)]
    rng = np.random.default_rng(107)
    for name, f in instances:
        centers = probe_centers.get(name)
        if centers is None:
            centers = [x for x in f.domain.sample(rng, 12)
                       if not f.in_argmin(x)][:5]
        sequences = 0
        for x in centers:
            verdict = closedness_probe(f, x, approach_sequences=200,
                                       seed=107)
            assert verdict.passed, (name, x, verdict.violations[:2])
            sequences += 200
        assert sequences >= 1000
        pairs = quasimonotonicity_probe(f, pair_samples=1000, seed=107)
        assert pairs.passed, (name, pairs.violations[:2])
        assert pairs.checked >= 900
    corrupted = quasimonotonicity_probe(corrupted1d, pair_samples=1500,
                                        seed=107)
    assert not corrupted.passed and len(corrupted.violations) >= 1
    _passline(7, "closedness and quasimonotonicity clean; corrupted instance "
                 f"yields {len(corrupted.violations)} violations")


def test_criterion_08_sion_gap(gqvi_hand, gqvi_box2d, gqvi_interval_op):
    """|minmax - maxmin| <= 1e-8 at 100 feasible points per instance, with a
    dense grid oracle at 3 of them within 1e-3."""
    rng = np.random.default_rng(108)
    for instance in (gqvi_hand, gqvi_box2d, gqvi_interval_op):
        cm = instance.constraint_map
        points = cm.box.sample(rng, 100)
        worst = 0.0
        for x in points:
            res = sion_check(instance.operator, cm, x)
            worst = max(worst, res.gap, res.gap_full)
        assert worst <= TOL_SION
        for x in points[:3]:
            res = minimax_value(instance.operator, cm, x)
            feasible = cm.value(x)
            lo, hi = feasible.bounding_box()
            axes = [np.linspace(lo[k], hi[k], 700 if cm.dim == 1 else 120)
                    for k in range(cm.dim)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, cm.dim)
            grid = np.vstack([grid[feasible.contains_many(grid)],
                              feasible.vertices()])
            verts = instance.operator.value(x).vertices()
            grid_min = ((grid - x) @ verts.T).max(axis=1).min()
            assert grid_min >= res.value - 1e-9
            assert res.value >= grid_min - TOL_SION_GRID
    _passline(8, "Sion gap vanishes at 100 points x 3 instances; grid oracle agrees")


def test_criterion_09_gqvi_hand_instance(gqvi_hand):
    """The moving-interval instance solves to x = -2 with residual 0; a
    mesh-1/64 brute force agrees within 1e-3."""
    report = solve(gqvi_hand)
    assert report.status == "solved"
    assert report.x == pytest.approx([-2.0], abs=1e-7)
    assert report.residual >= -TOL_RESIDUAL
    assert abs(report.residual) <= 1e-9
    fix = fixed_point_set(gqvi_hand.constraint_map)
    lo, hi = fix.bounding_box()
    mesh = (hi[0] - lo[0]) / 64.0
    best = -np.inf
    for x in np.arange(lo[0], hi[0] + mesh / 2, mesh):
        value = minimax_value(gqvi_hand.operator, gqvi_hand.constraint_map,
                              [x]).value
        best = max(best, value)
    assert abs(best - report.residual) <= 1e-3
    _passline(9, f"hand instance solved at x={report.x[0]:.6f}, "
                 f"residual {report.residual:.2e}")


def test_criterion_10_quasiopt_end_to_end(step1d, sq2d, atlas_step1d,
                                          atlas_sq2d):
    """Three instances solve with f(x) <= grid-min + 1e-6; the degenerate
    K == C case matches the classical grid argmin; suite under 5 minutes."""
    started = time.perf_counter()
    window1d = MovingPolytope(a=[[1.0], [-1.0]], b=[0.5, 0.5],
                              d=[[1.0], [-1.0]],
                              box=Polytope.from_box([-1.0], [2.0]))
    instance1 = QuasioptInstance(step1d, window1d, atlas_step1d,
                                 tol_opt=TOL_OPT)
    report1 = solve_quasiopt(instance1)
    assert report1.verified
    assert report1.f_value <= report1.grid_min + TOL_OPT
    sols = brute_force_quasiopt(instance1, mesh=0.05)
    assert np.abs(sols - np.asarray(report1.x)).min() <= 0.05 + 1e-9

    window2d = MovingPolytope(
        a=np.vstack([np.eye(2), -np.eye(2)]), b=[0.5] * 4,
        d=np.vstack([np.eye(2), -np.eye(2)]),
        box=Polytope.from_box([-2, -2], [2, 2]))
    instance2 = QuasioptInstance(sq2d, window2d, atlas_sq2d,
                                 config=SolverConfig(starts=6),
                                 tol_opt=TOL_OPT, grid_divisions=60)
    report2 = solve_quasiopt(instance2)
    assert report2.verified
    assert report2.f_value <= report2.grid_min + TOL_OPT

    degenerate = MovingPolytope(a=[[1.0]], b=[5.0], d=[[0.0]],
                                box=Polytope.from_box([-1.0], [2.0]))
    instance3 = QuasioptInstance(step1d, degenerate, atlas_step1d,
                                 tol_opt=TOL_OPT)
    report3 = solve_quasiopt(instance3)
    assert report3.verified
    classical = min(step1d.evaluate([x]) for x in np.linspace(-1, 2, 601))
    assert report3.f_value <= classical + TOL_OPT
    assert report3.f_value == pytest.approx(classical)

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _passline(10, f"quasiopt end-to-end on 3 instances ({elapsed:.1f}s)")

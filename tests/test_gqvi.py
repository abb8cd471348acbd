import itertools

import numpy as np
import pytest

from adjcone import geometry, gqvi
from adjcone.geometry import EmptyPolytopeError, Polytope
from adjcone.gqvi import (
    ConstantOperator,
    GqviInstance,
    InstanceError,
    MovingPolytope,
    TabulatedOperator,
    fixed_point_set,
    hypothesis_report,
    lsc_probe,
    minimax_value,
    sion_check,
    solve,
)


@pytest.fixture(scope="module")
def moving_interval():
    """K(x) = [x/2 - 1, x/2 + 1] ∩ [-2, 2]."""
    box = Polytope.from_box([-2.0], [2.0])
    return MovingPolytope(a=[[1.0], [-1.0]], b=[1.0, 1.0],
                          d=[[0.5], [-0.5]], box=box)


@pytest.fixture(scope="module")
def unit_operator():
    return ConstantOperator(Polytope.from_vertices([[1.0]]))


@pytest.fixture(scope="module")
def moving_box_2d():
    box = Polytope.from_box([-2, -2], [2, 2])
    return MovingPolytope(a=np.vstack([np.eye(2), -np.eye(2)]),
                          b=[0.5] * 4,
                          d=np.vstack([0.5 * np.eye(2), -0.5 * np.eye(2)]),
                          box=box)


class TestFixedPointSet:
    def test_moving_interval(self, moving_interval):
        # |x - x/2| <= 1 iff |x| <= 2
        fix = fixed_point_set(moving_interval)
        lo, hi = fix.bounding_box()
        assert (lo[0], hi[0]) == pytest.approx((-2.0, 2.0))

    def test_constant_singleton(self):
        box = Polytope.from_box([-2.0], [2.0])
        cm = MovingPolytope(a=[[1.0], [-1.0]], b=[0.5, -0.5],
                            d=[[0.0], [0.0]], box=box)
        fix = fixed_point_set(cm)
        lo, hi = fix.bounding_box()
        assert lo[0] == pytest.approx(0.5) and hi[0] == pytest.approx(0.5)

    def test_whole_box(self):
        box = Polytope.from_box([-1.0], [1.0])
        cm = MovingPolytope(a=[[1.0]], b=[5.0], d=[[0.0]], box=box)
        fix = fixed_point_set(cm)
        lo, hi = fix.bounding_box()
        assert (lo[0], hi[0]) == pytest.approx((-1.0, 1.0))

    def test_empty_rejected(self):
        box = Polytope.from_box([0.0], [1.0])
        # x in K(x) forces x <= x - 1: impossible
        cm = MovingPolytope(a=[[1.0]], b=[-1.0], d=[[1.0]], box=box)
        with pytest.raises(InstanceError):
            fixed_point_set(cm)

    def test_membership_equivalence(self, moving_interval):
        fix = fixed_point_set(moving_interval)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2.5, 2.5, size=(1000, 1))
        for x in pts:
            lhs = fix.contains(x, 1e-9)
            rhs = moving_interval.box.contains(x, 1e-9) and \
                moving_interval.contains(x, x, 1e-9)
            assert lhs == rhs


class TestMinimax:
    def test_hand_value_origin(self, moving_interval, unit_operator):
        res = minimax_value(unit_operator, moving_interval, [0.0])
        assert res.value == pytest.approx(-1.0)
        assert res.y_opt == pytest.approx([-1.0])

    def test_hand_value_solution(self, moving_interval, unit_operator):
        res = minimax_value(unit_operator, moving_interval, [-2.0])
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_zero_operator(self, moving_interval):
        zero = ConstantOperator(Polytope.from_vertices([[0.0]]))
        res = minimax_value(zero, moving_interval, [0.7])
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_grid_oracle_2d(self, moving_box_2d):
        seg = ConstantOperator(Polytope.from_vertices([[1.0, 0.2], [0.1, 1.0]]))
        rng = np.random.default_rng(3)
        for x in moving_box_2d.box.sample(rng, 3):
            res = minimax_value(seg, moving_box_2d, x)
            feasible = moving_box_2d.value(x)
            lo, hi = feasible.bounding_box()
            axes = [np.linspace(lo[k], hi[k], 160) for k in range(2)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
            grid = np.vstack([grid[feasible.contains_many(grid)],
                              feasible.vertices()])
            verts = seg.polytope.vertices()
            values = ((grid - x) @ verts.T).max(axis=1)
            grid_min = values.min()
            assert grid_min >= res.value - 1e-9
            assert res.value >= grid_min - 1e-3


class TestSion:
    def test_hand_instance_gap(self, moving_interval, unit_operator):
        res = sion_check(unit_operator, moving_interval, [-2.0])
        assert res.gap <= 1e-10

    def test_singleton_operator_exact(self, moving_interval):
        zero = ConstantOperator(Polytope.from_vertices([[0.3]]))
        res = sion_check(zero, moving_interval, [0.5])
        assert res.gap == 0.0

    def test_segment_operator_random_points(self, moving_box_2d):
        seg = ConstantOperator(Polytope.from_vertices([[1.0, 0.0], [0.0, 1.0]]))
        rng = np.random.default_rng(4)
        for x in moving_box_2d.box.sample(rng, 40):
            res = sion_check(seg, moving_box_2d, x)
            assert res.gap <= 1e-8


class TestSolve:
    def test_hand_instance(self, moving_interval, unit_operator):
        report = solve(GqviInstance(moving_interval, unit_operator))
        assert report.status == "solved"
        assert report.x == pytest.approx([-2.0], abs=1e-7)
        assert report.residual >= -1e-6
        assert report.residual == pytest.approx(0.0, abs=1e-9)

    def test_brute_force_agrees(self, moving_interval, unit_operator):
        report = solve(GqviInstance(moving_interval, unit_operator))
        fix = fixed_point_set(moving_interval)
        lo, hi = fix.bounding_box()
        mesh = (hi[0] - lo[0]) / 64
        best_val = -np.inf
        for x in np.arange(lo[0], hi[0] + mesh / 2, mesh):
            val = minimax_value(unit_operator, moving_interval, [x]).value
            best_val = max(best_val, val)
        assert abs(best_val - report.residual) <= 1e-3

    def test_zero_operator_accepts_fixed_point(self, moving_interval):
        zero = ConstantOperator(Polytope.from_vertices([[0.0]]))
        report = solve(GqviInstance(moving_interval, zero))
        assert report.status == "solved"
        assert report.residual == pytest.approx(0.0, abs=1e-12)
        fix = fixed_point_set(moving_interval)
        assert fix.contains(report.x, 1e-9)

    def test_scaling_invariance(self, moving_interval):
        base = ConstantOperator(Polytope.from_vertices([[1.0]]))
        doubled = ConstantOperator(Polytope.from_vertices([[2.0]]))
        for x in ([-2.0], [-1.0], [0.5], [2.0]):
            a = minimax_value(base, moving_interval, x).value
            b = minimax_value(doubled, moving_interval, x).value
            assert (a >= -1e-9) == (b >= -1e-9)

    def test_solved_report_reverifies(self, moving_interval, unit_operator):
        # residual characterization at the reported point: no vertex of T
        # has a strictly better worst case over a dense grid of K(x)
        report = solve(GqviInstance(moving_interval, unit_operator))
        x = report.x
        feasible = moving_interval.value(x)
        lo, hi = feasible.bounding_box()
        grid = np.linspace(lo[0], hi[0], 4001).reshape(-1, 1)
        verts = unit_operator.polytope.vertices()
        minmax_grid = ((grid - x) @ verts.T).max(axis=1).min()
        assert minmax_grid >= -1e-6

    def test_determinism(self, moving_interval, unit_operator):
        r1 = solve(GqviInstance(moving_interval, unit_operator))
        r2 = solve(GqviInstance(moving_interval, unit_operator))
        assert np.array_equal(r1.x, r2.x)
        assert r1.residual == r2.residual

    def test_trace_collection(self, moving_interval, unit_operator):
        report = solve(GqviInstance(moving_interval, unit_operator),
                       collect_trace=True)
        assert report.trace
        start, point, residual = report.trace[0]
        assert isinstance(start, int) and point.shape == (1,)


class TestHypothesisReport:
    def test_affine_instance_passes(self, moving_interval, unit_operator):
        report = hypothesis_report(GqviInstance(moving_interval, unit_operator))
        assert report["all_passed"]
        assert report["nonempty_scan"]["failures"] == 0
        assert report["values_in_class_D"]
        assert report["fix_k_closed"]

    def test_constant_map_passes(self):
        box = Polytope.from_box([-2.0], [2.0])
        cm = MovingPolytope(a=[[1.0], [-1.0]], b=[1.0, 1.0],
                            d=[[0.0], [0.0]], box=box)
        report = hypothesis_report(GqviInstance(
            cm, ConstantOperator(Polytope.from_vertices([[0.0]]))))
        assert report["all_passed"]

    def test_jumpy_map_fails_lsc(self):
        box = Polytope.from_box([-2.0], [2.0])
        jump = TabulatedOperator(0, [0.0],
                                 [Polytope.from_box([-2.0], [-1.0]),
                                  Polytope.from_box([1.0], [2.0])])
        probe = lsc_probe(jump.value, box, seed=11)
        assert not probe["passed"]
        assert probe["worst_terminal"] > 1.0


class _FailingOperator:
    dim = 1

    def value(self, x):
        raise InstanceError("operator undefined everywhere")


def test_solve_reports_infeasible_when_operator_never_evaluates(moving_interval):
    report = solve(GqviInstance(moving_interval, _FailingOperator()))
    assert report.status == "infeasible"
    assert report.x is None


@pytest.fixture(scope="module")
def pinched_strip():
    """Non-box K(x) = {y : -x1 <= y1 + y2 <= x1, y1 - y2 <= 1} ∩ [-2, 2]^2:
    empty for x1 < 0, a segment at x1 = 0, a strip beyond."""
    box = Polytope.from_box([-2.0, -2.0], [2.0, 2.0])
    return MovingPolytope(a=[[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]],
                          b=[0.0, 0.0, 1.0],
                          d=[[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]], box=box)


def test_minimax_empty_exactly_where_value_is(pinched_strip):
    # minimax_value decides emptiness from its own LP's phase 1, not from
    # a separate feasibility LP; both must agree point for point.
    operator = ConstantOperator(Polytope.from_vertices(
        [[1.0, 0.5], [1.5, 0.0], [1.2, 1.0]]))
    empty = 0
    for x in itertools.product(np.linspace(-1.0, 1.0, 9), [-1.0, 0.0, 1.5]):
        try:
            pinched_strip.value(x)
        except EmptyPolytopeError:
            empty += 1
            with pytest.raises(EmptyPolytopeError):
                minimax_value(operator, pinched_strip, x)
            continue
        res = minimax_value(operator, pinched_strip, x)
        assert pinched_strip.contains(x, res.y_opt)
    assert empty == 12


def test_minimax_value_runs_one_lp(pinched_strip, monkeypatch):
    calls = []
    solve_lp = gqvi.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(gqvi, "solve_lp", counting)
    monkeypatch.setattr(geometry, "solve_lp", counting)
    operator = ConstantOperator(Polytope.from_vertices([[1.0, 0.5], [1.5, 0.0]]))
    minimax_value(operator, pinched_strip, [0.5, 0.0])
    assert len(calls) == 1
    with pytest.raises(EmptyPolytopeError):
        minimax_value(operator, pinched_strip, [-0.5, 0.0])
    assert len(calls) == 2

import numpy as np
import pytest

from adjcone.geometry import Polytope
from adjcone.gqvi import GqviInstance, MovingPolytope, SolverConfig, solve
from adjcone.normal_op import adjusted_normal_cone, build_atlas, global_base
from adjcone.quasiopt import (
    QuasioptInstance,
    TFromNormal,
    solve_quasiopt,
)
from helpers import (assert_same_report, brute_force_quasiopt, chart_base,
                     same_set, sequential_solve)


@pytest.fixture(scope="module")
def atlas1d(step1d):
    return build_atlas(step1d, Polytope.from_box([0.25], [1.75]), 0.25,
                       argmin_margin=0.25)


@pytest.fixture(scope="module")
def window1d(step1d):
    """K(x) = [x - 0.5, x + 0.5] ∩ [-1, 2]."""
    return MovingPolytope(a=[[1.0], [-1.0]], b=[0.5, 0.5],
                          d=[[1.0], [-1.0]], box=Polytope.from_box([-1.0], [2.0]))


@pytest.fixture(scope="module")
def instance1d(step1d, window1d, atlas1d):
    return QuasioptInstance(step1d, window1d, atlas1d)


@pytest.fixture(scope="module")
def atlas2d(sq2d):
    return build_atlas(sq2d, Polytope.from_box([1.2, -0.5], [1.9, 0.5]),
                       0.2, argmin_margin=0.15, radius_cap=0.15)


class TestOperator:
    def test_plateau_value_from_base_map(self, step1d, atlas1d):
        op = TFromNormal(step1d, atlas1d)
        verts = op.value([0.5]).vertices()
        assert verts.shape == (1, 1)
        assert verts[0][0] > 0

    def test_argmin_branch_dual_box(self, step1d, atlas1d):
        op = TFromNormal(step1d, atlas1d)
        lo, hi = op.value([-0.5]).bounding_box()
        assert lo == pytest.approx([-1.0]) and hi == pytest.approx([1.0])

    def test_single_chart_zone(self, step1d, atlas1d):
        op = TFromNormal(step1d, atlas1d)
        # 0.5 sits on the chart grid; only its own chart is active there
        result = global_base(atlas1d, step1d, [0.5])
        (i, w), = result.active_charts
        assert w == pytest.approx(1.0)
        assert same_set(op.value([0.5]),
                        chart_base(atlas1d.charts[i], step1d, [0.5]))


class TestSolve:
    def test_moving_window_1d(self, instance1d):
        report = solve_quasiopt(instance1d)
        assert report.verified
        assert report.f_value <= report.grid_min + 1e-6
        # candidate must solve the quasiopt problem per the grid oracle
        sols = brute_force_quasiopt(instance1d, mesh=0.05)
        gap = np.abs(sols - np.asarray(report.x)).min()
        assert gap <= 0.05 + 1e-9

    def test_brute_force_matches_hand_analysis(self, instance1d):
        # hand analysis: solutions are [-1,0] ∪ (0.5,1] ∪ (1.5,2]
        sols = brute_force_quasiopt(instance1d, mesh=0.05)
        xs = np.sort(sols.ravel())
        for x in xs:
            ok = (-1 - 1e-9 <= x <= 1e-9) or (0.5 + 1e-9 < x <= 1 + 1e-9) \
                or (1.5 + 1e-9 < x <= 2 + 1e-9)
            assert ok, x
        # the plateau example from the analysis is present
        assert any(abs(x - 0.6) < 1e-9 for x in xs)
        assert any(abs(x + 0.5) < 1e-9 for x in xs)

    def test_argmin_shortcut(self, step1d, instance1d):
        report = solve_quasiopt(instance1d)
        if report.in_argmin:
            # immediate acceptance: bottom level is globally minimal
            assert report.f_value == pytest.approx(step1d.levels[0])

    def test_moving_box_2d(self, sq2d, atlas2d):
        window = MovingPolytope(
            a=np.vstack([np.eye(2), -np.eye(2)]),
            b=[0.5] * 4,
            d=np.vstack([np.eye(2), -np.eye(2)]),
            box=Polytope.from_box([-2, -2], [2, 2]))
        instance = QuasioptInstance(sq2d, window, atlas2d,
                                    config=SolverConfig(starts=6),
                                    grid_divisions=60)
        report = solve_quasiopt(instance)
        assert report.verified
        assert report.f_value <= report.grid_min + 1e-6

    def test_degenerate_constant_constraint(self, step1d, atlas1d):
        # K(x) = box for all x: classical optimization
        box = Polytope.from_box([-1.0], [2.0])
        cm = MovingPolytope(a=[[1.0]], b=[5.0], d=[[0.0]], box=box)
        instance = QuasioptInstance(step1d, cm, atlas1d)
        report = solve_quasiopt(instance)
        assert report.verified
        # matches the classical grid argmin value
        grid = np.linspace(-1.0, 2.0, 601).reshape(-1, 1)
        classical = min(step1d.evaluate(p) for p in grid)
        assert report.f_value == pytest.approx(classical)

    def test_operator_soundness(self, step1d, instance1d):
        report = solve_quasiopt(instance1d)
        if not report.in_argmin:
            witness = np.asarray(report.gqvi.witness)
            cone = adjusted_normal_cone(step1d, report.x)
            assert cone.contains(witness, tol=1e-6)
            assert np.linalg.norm(witness) >= 1e-3

    def test_brute_force_empty_for_infeasible_grid(self, step1d, atlas1d):
        # fix K is the singleton {2.5}, which lies outside the domain of f,
        # so no grid point is feasible and the result is vacuous
        box = Polytope.from_box([-1.0], [3.0])
        cm = MovingPolytope(a=[[1.0], [-1.0]], b=[2.5, -2.5],
                            d=[[0.0], [0.0]], box=box)
        instance = QuasioptInstance(step1d, cm, atlas1d)
        sols = brute_force_quasiopt(instance, mesh=0.1)
        assert len(sols) == 0


def test_validate_rejects_box_outside_domain(step1d, atlas1d):
    box = Polytope.from_box([-1.0], [5.0])  # pokes past the domain
    cm = MovingPolytope(a=[[1.0]], b=[9.0], d=[[0.0]], box=box)
    instance = QuasioptInstance(step1d, cm, atlas1d)
    with pytest.raises(ValueError, match="domain"):
        instance.validate()


def test_reduction_solves_as_the_sequential_oracle(step1d, window1d, atlas1d,
                                                   sq2d, atlas2d):
    # T(x) is the dual box on the argmin and the glued base elsewhere, so
    # steps carry LPs of different sizes, and it raises a coverage error
    # outside the atlas, which abandons a start.
    window2d = MovingPolytope(
        a=np.vstack([np.eye(2), -np.eye(2)]), b=[0.5] * 4,
        d=np.vstack([np.eye(2), -np.eye(2)]),
        box=Polytope.from_box([-2, -2], [2, 2]))
    for f, window, atlas in ((step1d, window1d, atlas1d),
                             (sq2d, window2d, atlas2d)):
        instance = GqviInstance(window, TFromNormal(f, atlas),
                                config=SolverConfig(starts=6))
        assert_same_report(solve(instance, collect_trace=True),
                           sequential_solve(instance, collect_trace=True))

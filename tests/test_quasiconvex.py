import math

import numpy as np
import pytest

from adjcone.geometry import Polytope
from adjcone.quasiconvex import (
    ArgminError,
    DomainError,
    SamplingPlan,
    StepLevelFunction,
    adjusted_convexity_check,
    analytic_from_name,
    quasiconvexity_check,
)
from helpers import sublevel_contains


class TestConstruction:
    def test_rejects_non_nested(self):
        with pytest.raises(ValueError, match="nested"):
            StepLevelFunction(
                [0.0, 1.0],
                [Polytope.from_box([0.0], [2.0]), Polytope.from_box([0.0], [1.0])])

    def test_rejects_non_increasing_levels(self):
        with pytest.raises(ValueError, match="increasing"):
            StepLevelFunction(
                [1.0, 1.0],
                [Polytope.from_box([0.0], [1.0]), Polytope.from_box([0.0], [2.0])])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_level(self, bad):
        # NaN passes the increasing test (b <= a is false for NaN) and an
        # infinite top level passes it outright.
        with pytest.raises(ValueError, match=r"^levels\[1\] must be a finite"):
            StepLevelFunction(
                [0.0, bad],
                [Polytope.from_box([0.0], [1.0]), Polytope.from_box([0.0], [2.0])])

    def test_full_dimensional_flag(self, step1d):
        assert step1d.has_full_dimensional_levels


class TestEvaluate:
    def test_bottom_level(self, step1d):
        assert step1d.evaluate([-0.5]) == 0.0

    def test_middle_level(self, step1d):
        assert step1d.evaluate([0.5]) == 1.0

    def test_outside_domain(self, step1d):
        assert math.isinf(step1d.evaluate([3.0]))


class TestLevelSets:
    def test_sublevel_at_level(self, step1d):
        handle = step1d.sublevel(1.0)
        lo, hi = handle.polytope.bounding_box()
        assert (lo[0], hi[0]) == (-1.0, 1.0)

    def test_sublevel_between_levels(self, step1d):
        handle = step1d.sublevel(1.5)
        assert handle.polytope is step1d.polytopes[1]

    def test_sublevel_below_all(self, step1d):
        assert step1d.sublevel(-1.0).is_empty

    def test_strict_sublevel(self, step1d):
        assert step1d.strict_sublevel(1.0).polytope is step1d.polytopes[0]
        assert step1d.strict_sublevel(0.0).is_empty
        assert step1d.strict_sublevel(2.0).polytope is step1d.polytopes[1]

    def test_strict_sublevel_is_closed(self, step1d):
        assert step1d.strict_sublevel(1.0).is_closed

    def test_monotone_levels(self, step1d):
        for lam1, lam2 in [(0.0, 1.0), (1.0, 2.0), (0.5, 1.7)]:
            small = step1d.sublevel(lam1)
            large = step1d.sublevel(lam2)
            if small.is_empty:
                continue
            inside = large.polytope.contains_many(small.polytope.vertices())
            assert inside.all()


class TestArgmin:
    def test_membership(self, step1d):
        assert step1d.in_argmin([-0.5])
        assert not step1d.in_argmin([0.5])
        assert step1d.in_argmin([0.0])  # boundary of the bottom level


class TestRho:
    def test_middle_plateau(self, step1d):
        # oracle: distance from 0.5 to [-1, 0]
        assert step1d.rho([0.5]) == pytest.approx(0.5)

    def test_level_boundary(self, step1d):
        assert step1d.rho([1.0]) == pytest.approx(1.0)

    def test_corner(self, sq2d):
        # oracle: corner projection of (2,2) onto [-1,1]^2
        assert sq2d.rho([2.0, 2.0]) == pytest.approx(math.sqrt(2.0))

    def test_rejects_argmin(self, step1d):
        with pytest.raises(ArgminError):
            step1d.rho([-0.5])

    def test_rejects_outside_domain(self, step1d):
        with pytest.raises(DomainError):
            step1d.rho([5.0])

    def test_positivity_on_samples(self, step1d, sq2d, nested3d):
        rng = np.random.default_rng(3)
        for f in (step1d, sq2d, nested3d):
            pts = f.domain.sample(rng, 120)
            for x in pts:
                if f.in_argmin(x) or math.isinf(f.evaluate(x)):
                    continue
                assert f.rho(x) > 0


class TestAdjustedContains:
    def test_inside_enlargement(self, step1d):
        # oracle: [-1,1] ∩ B([-1,0], 0.5) = [-1, 0.5]
        assert step1d.adjusted_contains([0.5], [0.25])

    def test_outside_enlargement(self, step1d):
        # dist(0.75, [-1,0]) = 0.75 > rho = 0.5
        assert not step1d.adjusted_contains([0.5], [0.75])

    def test_argmin_case_is_plain_sublevel(self, step1d):
        assert step1d.adjusted_contains([-0.5], [0.0])

    def test_self_membership(self, step1d, sq2d):
        rng = np.random.default_rng(5)
        for f in (step1d, sq2d):
            for x in f.domain.sample(rng, 150):
                if math.isinf(f.evaluate(x)):
                    continue
                assert f.adjusted_contains(x, x)

    def test_sandwich_property(self, step1d, sq2d, nested3d):
        # strict sublevel => adjusted => sublevel, zero violations
        rng = np.random.default_rng(9)
        for f in (step1d, sq2d, nested3d):
            lo, hi = f.domain.bounding_box()
            xs = f.domain.sample(rng, 25)
            ys = rng.uniform(lo - 0.3, hi + 0.3, size=(50, f.dim))
            for x in xs:
                value = f.evaluate(x)
                if math.isinf(value):
                    continue
                for y in ys:
                    in_strict = f.strict_level_distance(value, y) <= 1e-9
                    in_adj = f.adjusted_contains(x, y)
                    in_sub = sublevel_contains(f, value, y)
                    if in_strict:
                        assert in_adj
                    if in_adj:
                        assert in_sub


class TestChecks:
    def test_step_instances_pass_both(self, step1d, sq2d, nested3d):
        plan = SamplingPlan(points=600, pairs=60, seed=42)
        for f in (step1d, sq2d, nested3d):
            qc = quasiconvexity_check(f, plan)
            adj = adjusted_convexity_check(f, plan)
            assert qc.passed and adj.passed
            assert qc.passed == adj.passed  # equivalence exercise

    def test_two_wells_fails_both_with_witness(self):
        f = analytic_from_name("two_wells", Polytope.from_box([-2.0], [2.0]))
        plan = SamplingPlan(points=2000, pairs=80, seed=42)
        qc = quasiconvexity_check(f, plan)
        assert not qc.passed
        w = qc.witness
        # the witness is a genuine violation by direct evaluation
        mid = w["t"] * np.asarray(w["x"]) + (1 - w["t"]) * np.asarray(w["y"])
        assert f.evaluate(mid) > max(w["f_x"], w["f_y"])
        adj = adjusted_convexity_check(f, plan)
        assert not adj.passed
        assert qc.passed == adj.passed

    def test_corrupted_nesting_fails_both(self, corrupted1d):
        plan = SamplingPlan(points=800, pairs=80, seed=42)
        qc = quasiconvexity_check(corrupted1d, plan)
        adj = adjusted_convexity_check(corrupted1d, plan)
        assert not qc.passed
        assert not adj.passed
        assert qc.passed == adj.passed

    # (seed, quasiconvexity checked, adjusted convexity checked) on the
    # corrupted families, recorded from the point-by-point checks; the
    # batched checks must stop at the same draw.
    @pytest.mark.parametrize("seed, qc_checked, adj_checked",
                             [(0, 9, 2), (6, 3, 102), (8, 2, 205), (9, 10, 3)])
    def test_corrupted1d_first_failure_pinned(self, corrupted1d, seed,
                                              qc_checked, adj_checked):
        self._assert_first_failures(corrupted1d, seed, qc_checked, adj_checked)

    @pytest.mark.parametrize("seed, qc_checked, adj_checked",
                             [(1, 21, 307), (6, 3, 412)])
    def test_corrupted2d_first_failure_pinned(self, seed, qc_checked,
                                              adj_checked):
        f = StepLevelFunction(
            [0.0, 1.0, 2.0],
            [Polytope.from_box([-1.0, -1.0], [-0.5, -0.5]),
             Polytope.from_box([0.0, 0.0], [1.0, 1.0]),
             Polytope.from_box([-1.0, -1.0], [2.0, 2.0])],
            validate=False)
        self._assert_first_failures(f, seed, qc_checked, adj_checked)

    @staticmethod
    def _assert_first_failures(f, seed, qc_checked, adj_checked):
        plan = SamplingPlan(points=1000, pairs=100, seed=seed)
        qc = quasiconvexity_check(f, plan)
        adj = adjusted_convexity_check(f, plan)
        assert (qc.passed, qc.checked) == (False, qc_checked)
        assert (adj.passed, adj.checked) == (False, adj_checked)
        w = qc.witness
        mid = w["t"] * w["x"] + (1 - w["t"]) * w["y"]
        assert f.evaluate(mid) == w["f_mid"] > max(w["f_x"], w["f_y"])
        w = adj.witness
        assert np.array_equal(w["mid"], w["t"] * w["y1"] + (1 - w["t"]) * w["y2"])
        assert not f.adjusted_contains(w["x"], w["mid"], tol=1e-7)

    def test_max_abs_passes(self):
        f = analytic_from_name("max_abs", Polytope.from_box([-1, -1], [1, 1]))
        assert quasiconvexity_check(f, SamplingPlan(points=800, seed=2)).passed

    def test_determinism(self, step1d):
        plan = SamplingPlan(points=300, pairs=30, seed=17)
        a = quasiconvexity_check(step1d, plan)
        b = quasiconvexity_check(step1d, plan)
        assert a.passed == b.passed and a.checked == b.checked


class TestSingleLevel:
    def test_everything_is_argmin(self):
        f = StepLevelFunction([0.0], [Polytope.from_box([-1.0], [1.0])])
        assert f.evaluate([0.3]) == 0.0
        assert f.in_argmin([0.3])
        assert f.sublevel(0.0).polytope is f.polytopes[0]
        assert f.strict_sublevel(0.0).is_empty
        with pytest.raises(ArgminError):
            f.rho([0.3])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            StepLevelFunction(
                [0.0, 1.0],
                [Polytope.from_box([-1.0], [1.0]),
                 Polytope.from_box([-1, -1], [1, 1])])

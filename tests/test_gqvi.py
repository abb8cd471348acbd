import itertools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from adjcone import geometry, gqvi, lp
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
    solve,
)
from helpers import (
    assert_same_report,
    bits,
    damped,
    sequential_solve,
    sion_check,
    stacked_slice,
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

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
           rows=st.integers(1, 6), points=st.integers(1, 5))
    def test_full_gap_vanishes_on_random_polytope_data(self, seed, dim, rows,
                                                       points):
        # Minimax theorem on polytope data: maxmin_full equals minmax up to
        # rounding.  b >= 0.4 and |D x| <= 0.3 keep the origin inside K(x).
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rows, dim))
        a /= np.linalg.norm(a, axis=1)[:, None]
        cm = MovingPolytope(a=a, b=rng.uniform(0.4, 1.5, size=rows),
                            d=rng.uniform(-0.05, 0.05, size=(rows, dim)),
                            box=Polytope.from_box([-2.0] * dim, [2.0] * dim))
        op = ConstantOperator(Polytope.from_vertices(
            rng.uniform(-2.0, 2.0, size=(points, dim))))
        x = rng.uniform(-2.0, 2.0, size=dim)
        res = sion_check(op, cm, x)
        assert res.gap_full <= 1e-9 * (1.0 + abs(res.minmax))


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


def reference_lsc_probe(value_fn, box, seed=0):
    """``lsc_probe`` as first written: every perturbed point is evaluated
    and projected, for the full curve; returns its worst terminal value
    and the number of points within the terminal radius."""
    rng = np.random.default_rng(seed)
    radii = (1e-1, 1e-2, 1e-3)
    mesh = max(box.diameter() / 8.0, 1e-9)
    points = np.vstack([box.sample(rng, 12), box.vertices(),
                        geometry.grid_points(box, mesh)])
    worst_terminal, terminal = 0.0, 0
    for x in points:
        try:
            vertices = value_fn(x).vertices()
        except EmptyPolytopeError:
            continue
        samples = []
        for r in radii:
            for _ in range(6):
                direction = rng.normal(size=box.dim)
                direction /= np.linalg.norm(direction)
                x_p = x + r * direction * rng.uniform() ** (1.0 / box.dim)
                if not box.contains(x_p):
                    continue
                try:
                    moved = value_fn(x_p)
                except EmptyPolytopeError:
                    continue
                _, dist = moved.project_many(vertices)
                samples.append((float(np.linalg.norm(x_p - x)), float(dist.max())))
        within = [d for s, d in samples if s <= radii[-1] + 1e-15]
        terminal += len(within)
        worst_terminal = max(worst_terminal, max(within) if within else 0.0)
    return worst_terminal, terminal


@pytest.mark.parametrize("case", ["moving-2d", "jump-1d", "window-1d",
                                  "far-box-2d", "moving-3d"])
def test_lsc_probe_evaluates_only_terminal_points(case):
    # The map is called at each center and at each perturbed point within
    # the terminal radius, r = 1e-1 and 1e-2 draws that land there
    # included; the worst terminal value keeps its bits.  Far from the
    # origin the rounding of x' reaches 1e-10, inside the margin of the
    # draws skipped before x' is built.
    if case == "moving-2d":
        cm = random_gqvi(2, 2).constraint_map
        value_fn, box = cm.value, cm.box
    elif case == "moving-3d":  # a flat box keeps the grid of centers small
        cm = random_gqvi(2, 3).constraint_map
        box = Polytope.from_box([-2.0, -2.0, -0.4], [2.0, 2.0, 0.4])
        value_fn = MovingPolytope(cm.a, cm.b, cm.d, box).value
    elif case == "far-box-2d":
        box = Polytope.from_box([1e6, 1e6], [1e6 + 3.0, 1e6 + 3.0])
        eye = np.vstack([np.eye(2), -np.eye(2)])
        value_fn = MovingPolytope(eye, [0.5] * 4, eye, box).value
    elif case == "jump-1d":
        box = Polytope.from_box([-2.0], [2.0])
        value_fn = TabulatedOperator(0, [0.0], [Polytope.from_box([-2.0], [-1.0]),
                                                Polytope.from_box([1.0], [2.0])]).value
    else:
        box = Polytope.from_box([-1.0], [2.0])
        value_fn = MovingPolytope([[1.0], [-1.0]], [0.5, 0.5], [[1.0], [-1.0]],
                                  box).value
    calls = []

    def counting(x):
        calls.append(1)
        return value_fn(x)

    want, terminal = reference_lsc_probe(value_fn, box, seed=5)
    got = lsc_probe(counting, box, seed=5)
    assert bits(got["worst_terminal"]) == bits(want)
    assert got["passed"] == (want <= 1e-2)
    assert set(got) == {"radii", "worst_terminal", "passed"}
    centers = 12 + len(box.vertices()) + len(geometry.grid_points(
        box, max(box.diameter() / 8.0, 1e-9)))
    assert len(calls) == centers + terminal
    assert terminal < 9 * centers  # a third of the 18 draws per center, and a few


def test_random_is_the_uniform_stream():
    # lsc_probe draws its radius factor with rng.random(), which must give
    # the bits and the generator state of rng.uniform() (low + (high - low)
    # * u is u for the defaults); a numpy that breaks this fails here.
    for seed in range(20):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        want = [(rngs[0].normal(size=3).tobytes(), bits(rngs[0].uniform()))
                for _ in range(500)]
        got = [(rngs[1].normal(size=3).tobytes(), bits(rngs[1].random()))
               for _ in range(500)]
        assert got == want
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("axis, breakpoints, message", [
    (1, [0.0], "axis must be an integer in [0, 1), got 1"),
    (-1, [0.0], "axis must be an integer in [0, 1), got -1"),
    (True, [0.0], "axis must be an integer in [0, 1), got True"),
    (0.0, [0.0], "axis must be an integer in [0, 1), got 0.0"),
    (0, [1.0, 0.0], "breakpoints must strictly increase"),
    (0, [0.0, 0.0], "breakpoints must strictly increase"),
    (0, ["0.5", 1.0], "breakpoints must be numbers"),
], ids=["axis-past-dim", "axis-negative", "axis-bool", "axis-float",
        "breakpoints-decreasing", "breakpoints-repeated", "breakpoints-string"])
def test_tabulated_operator_rejects_bad_axis_and_breakpoints(axis, breakpoints,
                                                            message):
    # Unchecked, an axis past the dimension ended solve-gqvi in an
    # IndexError and unsorted breakpoints silently mis-assigned cells.
    cells = [Polytope.from_box([k], [k + 0.5])
             for k in range(len(breakpoints) + 1)]
    with pytest.raises(ValueError, match=re.escape(message)):
        TabulatedOperator(axis, breakpoints, cells)


def test_tabulated_operator_cells():
    cells = [Polytope.from_box([k], [k + 0.5]) for k in range(3)]
    op = TabulatedOperator(np.int64(0), [-1.0, 1.0], cells)
    assert [op.value([x]) for x in (-2.0, -1.0, 0.0, 1.0, 2.0)] == [
        cells[0], cells[0], cells[1], cells[1], cells[2]]


class _FailingOperator:
    dim = 1

    def value(self, x):
        raise InstanceError("operator undefined everywhere")


def test_solve_reports_infeasible_when_operator_never_evaluates(moving_interval):
    report = solve(GqviInstance(moving_interval, _FailingOperator()))
    assert report.status == "infeasible"
    assert report.x is None


class _NoDimOperator:
    def value(self, x):
        return Polytope.from_vertices([[1.0]])


def test_instance_rejects_operator_of_another_dimension(moving_interval):
    # Built without the check, solve returned "infeasible" after 0
    # iterations with {"ValueError": 44} abandoned.  An operator that
    # declares no dim is not checked.
    op = ConstantOperator(Polytope.from_box([1.0, 0.0], [1.0, 0.0]))
    with pytest.raises(InstanceError, match=re.escape(
            "T has dimension 2, expected 1 (the dimension of K)")):
        GqviInstance(moving_interval, op)
    GqviInstance(moving_interval, _NoDimOperator())


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


@pytest.mark.parametrize("field, data", [
    ("a", {"a": [[np.nan], [-1.0]]}),
    ("b", {"b": [np.inf, 1.0]}),
    ("d", {"d": [[np.nan], [-0.5]]}),
], ids=["a-nan", "b-inf", "d-nan"])
def test_moving_polytope_rejects_non_finite_data(field, data):
    # Unchecked, solve() caught the error per branch: a NaN in d returned
    # status "infeasible" after 0 iterations.
    kwargs = {"a": [[1.0], [-1.0]], "b": [1.0, 1.0], "d": [[0.5], [-0.5]],
              **data}
    with pytest.raises(ValueError, match=f"MovingPolytope: {field} has a "
                                         "non-finite entry"):
        MovingPolytope(box=Polytope.from_box([-2.0], [2.0]), **kwargs)


@pytest.mark.parametrize("data, box_dim, message", [
    ({"d": [[0.5]]}, 1, "A, b, D shapes disagree"),
    ({"b": [1.0]}, 1, "A, b, D shapes disagree"),
    ({}, 2, "constraint matrix does not match the box dimension"),
], ids=["d-rows", "b-size", "box-dim"])
def test_moving_polytope_rejects_bad_shapes(data, box_dim, message):
    kwargs = {"a": [[1.0], [-1.0]], "b": [1.0, 1.0], "d": [[0.5], [-0.5]],
              **data}
    box = Polytope.from_box([-2.0] * box_dim, [2.0] * box_dim)
    with pytest.raises(ValueError) as info:
        MovingPolytope(box=box, **kwargs)
    assert str(info.value).startswith(message)


# -- solver against the start-by-start oracle ------------------------------------


def random_gqvi(seed, dim, operator=None, **solver):
    """K(x) = {y : A y <= b + D x} ∩ [-2, 2]^dim with unit random normals
    and |D x| below half of b, so no K(x) is empty; by default a constant
    operator polytope that avoids the origin."""
    rng = np.random.default_rng(seed)
    facets = dim + 3
    a = rng.normal(size=(facets, dim))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b = rng.uniform(0.8, 1.4, size=facets)
    d = rng.uniform(-1.0, 1.0, size=(facets, dim))
    d *= 0.5 * b.min() / (2.0 * np.abs(d).sum(axis=1).max())
    box = Polytope.from_box(-2.0 * np.ones(dim), 2.0 * np.ones(dim))
    if operator is None:
        center = 1.5 * rng.normal(size=dim)
        operator = ConstantOperator(Polytope.from_vertices(
            center + 0.3 * rng.normal(size=(dim + 2, dim))))
    config = gqvi.SolverConfig(**{"starts": 6, "seed": seed, **solver})
    return GqviInstance(MovingPolytope(a, b, d, box), operator, config=config)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_solve_matches_sequential_oracle(seed, dim):
    instance = damped(random_gqvi(seed, dim))
    assert_same_report(solve(instance, collect_trace=True),
                       sequential_solve(instance, collect_trace=True))


def test_grid_fallback_matches_sequential_oracle():
    # The operator pushes toward +x0 left of 0 and toward -x0 right of
    # it: no solution, no start accepted, every grid point evaluated.
    def point(v):
        return Polytope.from_box([v, -0.1], [v, 0.1])

    operator = TabulatedOperator(0, [0.0], [point(-1.0), point(1.0)])
    instance = damped(random_gqvi(5, 2, operator, max_iters=3,
                                  mesh_divisions=12))
    got = solve(instance, collect_trace=True)
    assert got.status == "residual_floor"
    assert got.iterations > 3 * got.starts_tried
    assert_same_report(got, sequential_solve(instance, collect_trace=True))


def test_solve_stats_count_every_minimax_lp():
    # Each minimax LP is replayed, solved or answered warm; the grid
    # fallback's LPs that follow one of the same operator cell are
    # answered warm, and the others go through the memos of the steps'
    # bodies.  The counts stay out of the report.
    def point(v):
        return Polytope.from_box([v, -0.1], [v, 0.1])

    operator = TabulatedOperator(0, [0.0], [point(-1.0), point(1.0)])
    got = solve(random_gqvi(5, 2, operator, max_iters=3, mesh_divisions=12))
    stats = got.stats
    assert stats["minimax_lps"] == got.iterations
    assert stats["replayed"] + stats["solved"] + stats["warm"] == got.iterations
    assert stats["warm"] > stats["replayed"] > stats["solved"] > 0
    assert stats["warm_declined"] == {}
    assert stats["abandoned"] == {}
    assert "stats" not in got.to_dict()


class _HoleOperator:
    """``inner`` with a hole: raises EmptyPolytopeError for x0 in (lo, hi)."""

    def __init__(self, inner, lo, hi):
        self.inner, self.lo, self.hi, self.dim = inner, lo, hi, inner.dim

    def value(self, x):
        if self.lo < x[0] < self.hi:
            raise EmptyPolytopeError("operator hole")
        return self.inner.value(x)


def test_lane_abandoned_mid_run_leaves_other_lanes(moving_interval,
                                                   unit_operator):
    # From x = 2 the damped steps go 2, 1, 0.25, ...; a hole around 1
    # abandons that start at its second step.
    holed = damped(GqviInstance(moving_interval,
                                _HoleOperator(unit_operator, 0.9, 1.1)))
    whole = damped(GqviInstance(moving_interval, unit_operator))
    got = solve(holed, collect_trace=True)
    assert_same_report(got, sequential_solve(holed, collect_trace=True))
    rows = {}
    for start, x, value in solve(whole, collect_trace=True).trace:
        rows.setdefault(start, []).append((bits(x), value))
    kept = {}
    for start, x, value in got.trace:
        kept.setdefault(start, []).append((bits(x), value))
    cut = [start for start in rows if kept.get(start) != rows[start]]
    assert cut and all(len(kept[start]) >= 1 for start in cut)
    assert all(kept[start] == rows[start][:len(kept[start])] for start in cut)
    assert got.iterations < solve(whole).iterations
    assert got.status == "solved"


def test_lp_budget_error_ends_the_solve(monkeypatch):
    from adjcone import lp

    instance = random_gqvi(1, 3)
    monkeypatch.setattr(lp, "_budget", lambda rows, cols: 2)
    with pytest.raises(lp.LPError):
        sequential_solve(instance)
    with pytest.raises(lp.LPError):
        solve(instance)


@pytest.mark.parametrize("seed", range(3))
def test_halfspaces_at_are_the_slice_rows(seed):
    # Random non-box rows, axis rows whose box bounds cross at some x, and
    # a zero row whose offset turns negative: the same bits, or the same
    # error class, as the rows of K(x) built as a Polytope without its
    # feasibility LP.
    rng = np.random.default_rng(seed)
    box = Polytope.from_box([-2.0, -2.0], [2.0, 2.0])
    maps = [
        MovingPolytope(rng.normal(size=(5, 2)), rng.uniform(0.5, 1.5, 5),
                       0.2 * rng.normal(size=(5, 2)), box),
        MovingPolytope([[1.0, 0.0], [-1.0, 0.0]], [0.2, 0.2],
                       [[0.0, 1.0], [0.0, 1.0]], box),
        MovingPolytope([[0.0, 0.0], [1.0, 1.0]], [0.1, 1.0],
                       [[1.0, 0.0], [0.0, 0.0]], box),
    ]
    for cm in maps:
        box_a, box_b = box.halfspaces
        errors = set()
        for x in rng.uniform(-2.0, 2.0, size=(30, 2)):
            try:
                want = Polytope(np.vstack([cm.a, box_a]),
                                np.concatenate([cm.b + cm.d @ x, box_b]),
                                check_bounded=False,
                                check_feasible=False).halfspaces
            except geometry.GeometryError as exc:
                errors.add(type(exc))
                with pytest.raises(type(exc)):
                    cm._halfspaces_at(x)
                continue
            got = cm._halfspaces_at(x)
            assert all(bits(g) == bits(w) for g, w in zip(got, want))
        assert errors == ({EmptyPolytopeError} if cm is not maps[0] else set())


@pytest.mark.parametrize("seed", range(3))
def test_offset_slopes_are_the_offsets_derivative(seed):
    # The offsets of the unit rows of K(x) are affine in x, with the
    # slopes of ``_offset_slopes``, also where a zero row is dropped.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 2))
    a[1] = 0.0
    cm = MovingPolytope(a, rng.uniform(0.5, 1.5, 4), rng.normal(size=(4, 2)),
                        Polytope.from_box([-2.0, -2.0], [2.0, 2.0]))
    base = cm._halfspaces_at(np.zeros(2))[1]
    slopes = cm._offset_slopes()
    assert slopes.shape == (len(base), 2)
    for x in rng.uniform(-0.1, 0.1, size=(10, 2)):
        got = cm._halfspaces_at(x)[1]
        assert np.abs(got - (base + slopes @ x)).max() <= 1e-12


def _slice_outcome(build):
    """The bits of a K(x) and its vertices, or its error type and message,
    with the number of LPs that building it solved."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        solve_lp = geometry.solve_lp
        patch.setattr(geometry, "solve_lp",
                      lambda *a, **k: calls.append(1) or solve_lp(*a, **k))
        try:
            k = build()
        except geometry.GeometryError as exc:
            return type(exc), str(exc), len(calls)
    box = None if k._box_bounds is None else tuple(map(bits, k._box_bounds))
    return (bits(k._a), bits(k._b), k.dim, box, repr(k._exact_box),
            k._bbox is k._box_bounds, len(calls), bits(k.vertices()))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["general", "axis", "zero-row"]),
       seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
def test_value_matches_the_stacked_polytope(kind, seed, dim):
    # value(x) reuses the unit rows of its map; the oracle normalises the
    # stacked rows at every x.  General rows with offsets that empty some
    # slices (the feasibility LP decides), scaled and nearly axis rows
    # whose bounds cross at some x, and a zero row whose offset turns
    # negative: the same bits, LP count and vertices, or the same error.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    if kind == "axis":
        a = np.zeros((m, dim))
        a[np.arange(m), rng.integers(0, dim, m)] = (
            rng.choice([-1.0, 1.0], m) * rng.choice([1.0, 2.5, 0.1], m))
        a += rng.choice([0.0, 1e-13], (m, dim))
    else:
        a = rng.normal(size=(m, dim))
        if kind == "zero-row":
            a[0] = 0.0
    b = rng.uniform(-0.6, 1.2, m)
    d = rng.normal(size=(m, dim))
    lo = rng.uniform(-2.0, 0.0, dim)
    cm = MovingPolytope(a, b, d, Polytope.from_box(lo, lo + rng.uniform(0.5, 3.0)))
    for x in cm.box.sample(rng, 4):
        got = _slice_outcome(lambda: cm.value(x))
        assert got == _slice_outcome(lambda: stacked_slice(cm, x))


# -- LP bodies: one per operator value ---------------------------------------------


def _count_bodies(monkeypatch):
    """The list that grows by one for every LP body the cache builds for
    a minimax LP of ``gqvi``: the first program of each body."""
    built, inside = [], []
    solve_lp, prepare_body = gqvi.solve_lp, lp.prepare_body

    def minimax_lp(*args, **kwargs):
        inside.append(1)
        try:
            return solve_lp(*args, **kwargs)
        finally:
            inside.pop()

    def counting(*args, **kwargs):
        if inside:
            built.append(1)
        return prepare_body(*args, **kwargs)

    monkeypatch.setattr(gqvi, "solve_lp", minimax_lp)
    monkeypatch.setattr(lp, "prepare_body", counting)
    return built


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_constant_operator_builds_one_body_per_solve(dim, monkeypatch):
    instance = damped(random_gqvi(dim, dim))
    want = sequential_solve(instance, collect_trace=True)
    lp.clear_cache()
    built = _count_bodies(monkeypatch)
    got = solve(instance, collect_trace=True)
    assert len(built) == 1
    assert got.iterations > 10 * got.starts_tried
    assert got.stats["replayed"] > got.stats["solved"]
    assert_same_report(got, want)


@pytest.mark.parametrize("dim", [1, 3])
def test_minimax_rows_built_once_per_vertex_array(dim, monkeypatch):
    # K holds the minimax rows with the vertex array of T(x) they were
    # built for, so a constant operator builds them once per solve.  With
    # a fresh array at every value they are built at every minimax LP,
    # the recheck's too, and the report keeps the bits of the oracle.
    instance = random_gqvi(dim, dim)
    built, rows = [], gqvi._minimax_rows
    monkeypatch.setattr(gqvi, "_minimax_rows",
                        lambda *args: built.append(1) or rows(*args))
    got = solve(instance)
    assert len(built) == 1 and got.stats["minimax_lps"] > 10
    built.clear()
    got = solve(damped(instance), collect_trace=True)
    assert len(built) == got.stats["minimax_lps"] + 1
    assert_same_report(got, sequential_solve(damped(instance),
                                             collect_trace=True))


class _InfiniteOffsetsPast1(MovingPolytope):
    """K(x) whose offsets are infinite for x0 > 1, as they are where
    huge offsets are divided by tiny row norms."""

    def _offsets_at(self, x):
        b = super()._offsets_at(x)
        return np.full_like(b, np.inf) if x[0] > 1.0 else b


def _unusable_past_1(kind):
    """The moving interval ``[x/2 - 1, x/2 + 1] ∩ [-2, 2]``, unusable for
    x > 1: emptied by a zero row whose offset ``1 - x`` turns negative,
    or given infinite offsets there."""
    box = Polytope.from_box([-2.0], [2.0])
    if kind == "zero-row":
        return MovingPolytope([[1.0], [-1.0], [0.0]], [1.0, 1.0, 1.0],
                              [[0.5], [-0.5], [-1.0]], box)
    return _InfiniteOffsetsPast1([[1.0], [-1.0]], [1.0, 1.0],
                                 [[0.5], [-0.5]], box)


def _point_1d(v):
    return Polytope.from_box([v], [v])


@pytest.mark.parametrize("kind", ["zero-row", "non-finite"])
def test_lane_abandoned_by_its_slice_leaves_other_lanes(kind, monkeypatch):
    # T(x) = {1} for x <= 0 pushes x down to -2, where it is accepted;
    # T(x) = {-1} beyond pushes it up past 1, where the start is abandoned
    # after some steps.  The two cells build one body each.
    operator = TabulatedOperator(0, [0.0], [_point_1d(1.0), _point_1d(-1.0)])
    instance = damped(GqviInstance(_unusable_past_1(kind), operator,
                                   gqvi.SolverConfig(starts=6, seed=3)))
    want = sequential_solve(instance, collect_trace=True)
    lp.clear_cache()
    built = _count_bodies(monkeypatch)
    got = solve(instance, collect_trace=True)
    assert_same_report(got, want)
    assert len(built) == 2
    rows = {}
    for start, x, value in got.trace:
        rows.setdefault(start, []).append(value)
    accepted = [start for start, values in rows.items() if values[-1] >= 0.0]
    cut = [start for start, values in rows.items()
           if values[-1] < 0.0 and len(values) >= 2]
    assert accepted and cut
    assert got.status == "solved"
    # Every start that does not end accepted is abandoned once, some at
    # their first step (they leave no trace row).
    ended = [start for start, values in rows.items()
             if values[-1] >= -instance.config.tol_solve]
    error = "EmptyPolytopeError" if kind == "zero-row" else "ValueError"
    assert got.stats["abandoned"] == {error: got.starts_tried - len(ended)}
    assert got.stats["abandoned"][error] >= 3


class _CountingOperator(TabulatedOperator):
    """A tabulated operator that runs an LP of its own at every value and
    keeps the cache's call count from just before each of them."""

    def __init__(self, *args):
        super().__init__(*args)
        self.marks = []

    def value(self, x):
        self.marks.append(lp.cache_counts()["calls"])
        lp.solve_lp([1.0], a_ub=[[-1.0]], b_ub=[float(x[0]) ** 2])
        return super().value(x)


def test_minimax_stats_leave_out_the_operator_lps(moving_interval,
                                                  monkeypatch):
    # T(x) = {1} for x <= 0 and {-1} beyond: the starts are accepted at
    # -2 or 2, one body per cell.  The operator's own LPs go through the
    # same cache but stay out of the minimax counts.  Every step asks the
    # operator first, and the recheck's value is the last one asked for,
    # so the cache calls between the first and the last mark are the
    # steps' minimax LPs and all but the last operator LP.
    operator = _CountingOperator(0, [0.0], [_point_1d(1.0), _point_1d(-1.0)])
    instance = damped(GqviInstance(moving_interval, operator,
                                   gqvi.SolverConfig(starts=6, seed=3)))
    want = sequential_solve(instance, collect_trace=True)
    lp.clear_cache()
    operator.marks.clear()
    built = _count_bodies(monkeypatch)
    got = solve(instance, collect_trace=True)
    assert_same_report(got, want)
    assert got.status == "solved"
    stats = got.stats
    assert stats["minimax_lps"] == got.iterations
    assert stats["replayed"] + stats["solved"] == stats["minimax_lps"]
    marks = operator.marks
    assert len(marks) == got.iterations + 1
    assert marks[-1] - marks[0] == stats["minimax_lps"] + len(marks) - 1
    cache = lp.cache_counts()
    assert stats["replayed"] < cache["replayed"]
    assert {bool(x[0] > 0.0) for _, x, _ in got.trace} == {False, True}
    assert len(built) == 2


def test_solve_calls_the_public_minimax_value_only_to_recheck(
        moving_interval, unit_operator, monkeypatch):
    # The benchmark traces ``gqvi.minimax_value``: its calls and the LPs
    # run inside them stay one per solve that accepts a start, and none
    # when the grid fallback runs, however many steps the solve takes.
    calls = []
    public = gqvi.minimax_value

    def counting(*args):
        calls.append(args)
        return public(*args)

    monkeypatch.setattr(gqvi, "minimax_value", counting)
    got = solve(GqviInstance(moving_interval, unit_operator))
    assert got.status == "solved" and got.iterations > got.starts_tried
    assert len(calls) == 1 and bits(calls[0][2]) == bits(got.x)

    def point(v):
        return Polytope.from_box([v, -0.1], [v, 0.1])

    calls.clear()
    operator = TabulatedOperator(0, [0.0], [point(-1.0), point(1.0)])
    got = solve(random_gqvi(5, 2, operator, max_iters=3, mesh_divisions=12))
    assert got.status == "residual_floor"
    assert got.iterations > 3 * got.starts_tried
    assert calls == []


def test_reduction_shares_the_dual_box_body(step1d, monkeypatch):
    # The quasiopt operator is the dual box on the argmin and a freshly
    # glued base elsewhere: starts that meet the argmin at one step share
    # the box's body, and every base builds its own.
    from adjcone.normal_op import build_atlas
    from adjcone.quasiopt import TFromNormal

    atlas = build_atlas(step1d, Polytope.from_box([0.25], [1.75]), 0.25,
                        argmin_margin=0.25)
    window = MovingPolytope(a=[[1.0], [-1.0]], b=[0.5, 0.5],
                            d=[[1.0], [-1.0]],
                            box=Polytope.from_box([-1.0], [2.0]))
    instance = damped(GqviInstance(window, TFromNormal(step1d, atlas),
                                   config=gqvi.SolverConfig(starts=6)))
    want = sequential_solve(instance, collect_trace=True)
    lp.clear_cache()
    built = _count_bodies(monkeypatch)
    got = solve(instance, collect_trace=True)
    assert_same_report(got, want)
    assert 1 < len(built) < got.iterations
    assert got.stats["replayed"] > 0


# -- the affine jump ------------------------------------------------------------


def _damped_limit(instance, x, steps=5000):
    """Where the damped steps of the public ``minimax_value`` from x stop
    moving, bit for bit; None when they still move after ``steps``."""
    cfg, cm = instance.config, instance.constraint_map
    for _ in range(steps):
        y = minimax_value(instance.operator, cm, x).y_opt
        x_next = (1.0 - cfg.gamma) * x + cfg.gamma * y
        if np.array_equal(x_next, x):
            return x
        x = x_next
    return None


def _first_jump(instance, x):
    """The jump ``solve`` would try from x: at the first damped step that
    ends on the final basis of the step before it."""
    cfg, cm = instance.config, instance.constraint_map
    last = None
    for _ in range(cfg.max_iters):
        result, vertices, a_ub, basis = gqvi._minimax(instance.operator, cm,
                                                       x, Counter())
        if basis == last:
            return gqvi._affine_jump(cm, vertices, a_ub, basis, x,
                                     result.y_opt)
        last = basis
        x = (1.0 - cfg.gamma) * x + cfg.gamma * result.y_opt
    return None


def _hand_starts():
    return [np.array([v]) for v in (2.0, 1.0, 0.3, -1.5, -1.999)]


def test_jump_is_the_damped_limit(moving_interval, unit_operator):
    # The hand instance (``gqvi_hand`` of the acceptance tests), where
    # y*(x) = x/2 - 1 until the box row takes over within 2e-12 of the
    # limit -2, and a 2-D instance whose damped paths keep one basis from
    # their first repeat to their limit.
    cases = [(GqviInstance(moving_interval, unit_operator), _hand_starts())]
    instance = random_gqvi(5, 2)
    fix = fixed_point_set(instance.constraint_map)
    cases.append((instance, list(fix.sample(np.random.default_rng(5), 4))))
    for instance, starts in cases:
        for x in starts:
            jump = _first_jump(instance, x)
            limit = _damped_limit(instance, x)
            assert jump is not None and limit is not None
            assert np.abs(jump - limit).max() <= 1e-12


def test_jump_leaves_the_eigenvalue_one_directions():
    # K(x) = [x1 - 1, x1 + 1] x [x2/2 - 1, x2/2 + 1] in [-5, 5]^2 and
    # T = {(1, 1)}: y*(x) = (x1 - 1, x2/2 - 1) on one basis, so
    # M = diag(1, 1/2).  The damped steps contract x2 to -2 and shift x1
    # by -1/2 each, a move of the kind g = 0 leaves out: the jump keeps
    # x1 and takes x2 to its limit.
    cm = MovingPolytope(a=[[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
                        b=[1.0] * 4,
                        d=[[-1.0, 0.0], [0.0, -0.5], [1.0, 0.0], [0.0, 0.5]],
                        box=Polytope.from_box([-5.0, -5.0], [5.0, 5.0]))
    operator = ConstantOperator(Polytope.from_vertices([[1.0, 1.0]]))
    x = np.array([1.0, 2.0])
    result, vertices, a_ub, basis = gqvi._minimax(operator, cm, x, Counter())
    assert np.array_equal(result.y_opt, [0.0, 0.0])
    jump = gqvi._affine_jump(cm, vertices, a_ub, basis, x, result.y_opt)
    assert np.abs(jump - [1.0, -2.0]).max() <= 1e-12


# HiGHS's default primal feasibility tolerance, 1e-7, lets it cross a
# row by up to that much and so undercut the true residual by more than
# the optimality slack the checks allow.
_HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10}


def _linprog_minimax(instance, x):
    """The minimax residual at x by scipy's HiGHS at ``_HIGHS_TIGHT``,
    from the instance's A, b, D, box and the vertices of T(x) as given."""
    cm = instance.constraint_map
    v = instance.operator.value(x).vertices()
    box_a, box_b = cm.box.halfspaces
    k_a = np.vstack([cm.a, box_a])
    n = x.size
    a_ub = np.vstack([np.hstack([v, -np.ones((len(v), 1))]),
                      np.hstack([k_a, np.zeros((len(k_a), 1))])])
    b_ub = np.concatenate([v @ x, cm.b + cm.d @ x, box_b])
    c = np.zeros(n + 1)
    c[n] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (n + 1),
                  method="highs", options=_HIGHS_TIGHT)
    assert res.status == 0
    return res.fun


def _in_own_slice(instance, x, slack=1e-9):
    cm = instance.constraint_map
    box_a, box_b = cm.box.halfspaces
    return (bool(np.all(cm.a @ x <= cm.b + cm.d @ x + slack))
            and bool(np.all(box_a @ x <= box_b + slack)))


def test_accepted_points_pass_an_independent_check():
    # Every candidate the solver ranks, the accepted point of a start by
    # a jump or a damped step, passes a check of its own: HiGHS puts its
    # residual at or above -tol_solve (less its own 1e-9 optimality
    # slack), and x lies in K(x) by the raw rows.  The explicit examples
    # drop jumps that lie in K(jump) but fail the residual test.
    kept, dropped = [], []

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3))
    @example(seed=6, dim=2)
    @example(seed=5, dim=3)
    def check(seed, dim):
        instance = random_gqvi(seed, dim)
        ranked, key = [], gqvi._candidate_key
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gqvi, "_candidate_key",
                          lambda x: ranked.append(x) or key(x))
            report = solve(instance)
        assert report.status == "solved" and ranked
        assert any(bits(x) == bits(report.x) for x in ranked)
        for x in ranked:
            assert _linprog_minimax(instance, x) >= (
                -instance.config.tol_solve - 1e-9)
            assert _in_own_slice(instance, x)
        kept.append(report.stats["affine_kept"])
        dropped.append(report.stats["affine_tried"] - kept[-1])

    check()
    assert sum(kept) > len(kept) and sum(dropped) > 0


class _Holes:
    """``inner`` that raises ``GeometryError`` at the points of ``holes``,
    bit for bit."""

    def __init__(self, inner):
        self.inner, self.dim, self.holes = inner, inner.dim, set()

    def value(self, x):
        if bits(x) in self.holes:
            raise geometry.GeometryError("operator hole")
        return self.inner.value(x)


@pytest.mark.parametrize("kind", ["none", "outside", "hole", "rejected"])
def test_dropped_jump_leaves_the_damped_path(kind, monkeypatch):
    # A jump that is not finite, that leaves the box, where T raises, or
    # whose LP fails the residual test is dropped, and damping goes on
    # from where it was: the report of the damped path, with one more LP
    # in the trace for every jump whose LP ran.  The rejected jump goes
    # to x itself, whose LP replays the step before it; the hole is at a
    # copy of x.  The warm path, whose LPs take other pivots than the
    # oracle's, declines throughout.
    instance = random_gqvi(0, 2)
    want = sequential_solve(damped(instance), collect_trace=True)
    operator = _Holes(instance.operator)
    instance = GqviInstance(instance.constraint_map, operator, instance.config)
    tried = []

    def jump(cm, vertices, a_ub, basis, x, y_opt):
        tried.append(1)
        if kind == "hole":
            operator.holes.add(bits(x))
        return {"none": None, "outside": x + 10.0}.get(kind, x.copy())

    monkeypatch.setattr(gqvi, "_affine_jump", jump)
    monkeypatch.setattr(lp, "warm_solve", lambda *args: "check")
    got = solve(instance, collect_trace=True)
    assert got.stats["warm"] == 0
    assert got.stats["affine_tried"] == len(tried) > 0
    assert got.stats["affine_kept"] == 0
    assert got.stats["minimax_lps"] == got.iterations
    assert got.stats["abandoned"] == {}
    rows = [(s, bits(x), bits(v)) for s, x, v in got.trace]
    damped_rows = [row for i, row in enumerate(rows)
                   if i == 0 or row != rows[i - 1]]
    assert damped_rows == [(s, bits(x), bits(v)) for s, x, v in want.trace]
    landed = len(rows) - len(damped_rows)
    assert got.iterations == want.iterations + landed
    assert (landed > 0) == (kind == "rejected")
    assert bits(got.x) == bits(want.x) and got.residual == want.residual
    assert bits(got.witness) == bits(want.witness)


def test_jump_stats_on_the_hand_instance(moving_interval, unit_operator):
    # Every start past its first step jumps to -2 and keeps the jump; the
    # counts stay out of the report.
    got = solve(GqviInstance(moving_interval, unit_operator))
    want = solve(damped(GqviInstance(moving_interval, unit_operator)))
    stats = got.stats
    assert stats["affine_kept"] == stats["affine_tried"] > 0
    assert stats["minimax_lps"] == got.iterations < want.iterations / 10
    assert (want.stats["affine_tried"], want.stats["affine_kept"]) == (0, 0)
    assert bits(got.x) == bits(np.array([-2.0])) and got.residual == 0.0
    assert "affine_tried" not in got.to_dict()


# -- warm-started minimax LPs -----------------------------------------------------


def test_minimax_value_never_answers_warm(moving_interval, unit_operator,
                                          monkeypatch):
    # The public minimax_value, the winner's recheck included, always
    # solves cold; the solver's own steps go warm.
    calls, inside = [], []
    warm_solve, public = lp.warm_solve, gqvi.minimax_value
    monkeypatch.setattr(lp, "warm_solve",
                        lambda *args: calls.append(bool(inside)) or warm_solve(*args))

    def recheck(*args):
        inside.append(1)
        try:
            return public(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(gqvi, "minimax_value", recheck)
    for x in (2.0, 1.0, 0.5, -1.0, -2.0):
        gqvi.minimax_value(unit_operator, moving_interval, [x])
    assert calls == []
    got = solve(GqviInstance(moving_interval, unit_operator))
    stats = got.stats
    assert len(calls) == stats["warm"] + sum(stats["warm_declined"].values())
    assert stats["warm"] == got.iterations - 1 and not any(calls)


@pytest.mark.parametrize("reason", ["check", "budget", "singular", "empty",
                                    "degenerate"])
def test_declined_warm_answer_is_the_cold_one(reason, pinched_strip,
                                              monkeypatch):
    # A minimax LP at x1 after one at x0, on the same vertex array: where
    # the warm attempt declines, _minimax gives minimax_value's answer at
    # x1, bit for bit, or its EmptyPolytopeError.  No row slack passes
    # the check; no pivot is allowed; a basis holds both columns of y1;
    # K(x1) is empty; T = {(1, 0)} over a fixed box has a whole edge of
    # minimizers.
    instance = random_gqvi(0, 2)
    cm, operator = instance.constraint_map, instance.operator
    x0, x1 = np.zeros(2), np.array([1.5, -1.5])
    if reason == "check":
        monkeypatch.setattr(lp, "_ROW_TOL", -1.0)
    elif reason == "budget":
        monkeypatch.setattr(lp, "_WARM_PIVOTS", 0)
    elif reason == "empty":
        cm, x0, x1 = pinched_strip, np.array([0.5, 0.0]), np.array([-0.5, 0.0])
    elif reason == "degenerate":
        cm = MovingPolytope(a=[[1.0, 1.0]], b=[5.0], d=[[0.0, 0.0]],
                            box=Polytope.from_box([-1.0, -1.0], [1.0, 1.0]))
        operator = ConstantOperator(Polytope.from_vertices([[1.0, 0.0]]))
    counts, warm = Counter(warm_declined=Counter()), [None, None]
    gqvi._minimax(operator, cm, x0, counts, warm)
    if reason == "singular":
        warm[1] = (0, 1) + warm[1][2:]
    if reason == "empty":
        with pytest.raises(EmptyPolytopeError):
            gqvi._minimax(operator, cm, x1, counts, warm)
        with pytest.raises(EmptyPolytopeError):
            minimax_value(operator, cm, x1)
    else:
        got = gqvi._minimax(operator, cm, x1, counts, warm)[0]
        want = minimax_value(operator, cm, x1)
        assert bits(got.y_opt) == bits(want.y_opt)
        assert bits(got.value) == bits(want.value)
    assert counts["warm_declined"] == {reason: 1} and counts["warm"] == 0
    assert counts["minimax_lps"] == 2


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_warm_answers_keep_the_reported_point(dim, monkeypatch):
    # Against the solver with every warm attempt declined: the same
    # status, and x within 1e-12.
    for seed in range(4):
        instance = random_gqvi(seed, dim)
        got = solve(instance)
        with monkeypatch.context() as patch:
            patch.setattr(lp, "warm_solve", lambda *args: "check")
            want = solve(instance)
        assert got.status == want.status == "solved"
        assert got.stats["warm"] == got.iterations - 1
        assert np.abs(got.x - want.x).max() <= 1e-12

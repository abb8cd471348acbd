"""LP kernel tests: small hand programs, the array kernel against the
row-by-row reference it replaced, scipy's HiGHS as an oracle, the
pivot-path memo against ``solve_lp``, and the warm-started dual simplex
against ``solve_lp``, HiGHS and a reference of its pivot rule."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from adjcone import lp
from adjcone.gqvi import _minimax_rows
from adjcone.lp import LPSolution, solve_lp


def test_simple_bounded():
    sol = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[2.0])
    assert sol.optimal
    assert sol.value == pytest.approx(-2.0)


def test_infeasible():
    sol = solve_lp([1.0], a_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0])
    assert sol.status == "infeasible"


def test_unbounded():
    sol = solve_lp([-1.0], a_ub=[[-1.0]], b_ub=[0.0])
    assert sol.status == "unbounded"


def test_equality_constraint():
    # min x + y on x + y = 1, x,y in [0, 1]
    sol = solve_lp([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                   bounds=[(0.0, 1.0)] * 2)
    assert sol.optimal
    assert sol.value == pytest.approx(1.0)


def test_degenerate_vertex_terminates():
    # Many constraints active at the optimum; Bland must not cycle.
    a = np.array([[1.0, 0], [0, 1.0], [1.0, 1.0], [1.0, 1.0 + 1e-12]])
    sol = solve_lp([-1.0, -1.0], a_ub=a, b_ub=[1, 1, 2, 2])
    assert sol.optimal
    assert sol.value == pytest.approx(-2.0, abs=1e-8)


def test_two_sided_bounds():
    sol = solve_lp([-1.0, 2.0], bounds=[(-3.0, 5.0), (-2.0, 4.0)])
    assert sol.optimal
    assert sol.x == pytest.approx([5.0, -2.0])


def test_matches_scipy_on_random_programs():
    # HiGHS can label a feasible-but-unbounded program "infeasible" out of
    # presolve, so non-optimal statuses are disambiguated with an explicit
    # feasibility LP before comparing.
    rng = np.random.default_rng(7)
    for trial in range(120):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 8))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 1.0
        c = rng.normal(size=n)
        bounds = [(-5.0, 5.0)] * n if trial % 2 else [(0.0, None)] * n
        mine = solve_lp(c, a_ub=a, b_ub=b, bounds=bounds)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        if ref.status == 0:
            assert mine.optimal
            assert mine.value == pytest.approx(ref.fun, abs=1e-7)
        else:
            assert mine.status == _status_by_feasibility(a, b, bounds)


def _status_by_feasibility(a, b, bounds):
    feasible = linprog(np.zeros(a.shape[1]), A_ub=a, b_ub=b, bounds=bounds,
                       method="highs").status == 0
    return "unbounded" if feasible else "infeasible"


@pytest.mark.parametrize("kind", ["scaled", "degenerate", "infeasible"])
def test_matches_scipy_on_hard_programs(kind):
    # scaled: rows multiplied by 10**U(-3, 3), same feasible set.
    # degenerate: integer data, half of the right-hand sides zero and
    #   duplicated rows, so many bases share the optimal vertex.
    # infeasible: a random program plus a row pair that cannot both hold.
    rng = np.random.default_rng({"scaled": 11, "degenerate": 12,
                                 "infeasible": 13}[kind])
    for trial in range(80):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 8))
        if kind == "degenerate":
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            b = rng.integers(0, 3, size=m).astype(float)
            b[rng.random(m) < 0.5] = 0.0
            dup = rng.integers(0, m, size=2)
            a, b = np.vstack([a, a[dup]]), np.concatenate([b, b[dup]])
        else:
            a = rng.normal(size=(m, n))
            b = rng.normal(size=m) + 1.0
        if kind == "scaled":
            scale = 10.0 ** rng.uniform(-3, 3, size=m)
            a, b = a * scale[:, None], b * scale
        if kind == "infeasible":
            row = rng.normal(size=n)
            a = np.vstack([a, row, -row])
            b = np.concatenate([b, [0.5, -1.0]])
        c = rng.normal(size=n)
        bounds = [(-5.0, 5.0)] * n if trial % 2 else [(0.0, None)] * n
        mine = solve_lp(c, a_ub=a, b_ub=b, bounds=bounds)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        if kind == "infeasible":
            assert ref.status == 2
            assert mine.status == "infeasible"
        elif ref.status == 0:
            assert mine.optimal
            assert mine.value == pytest.approx(ref.fun, abs=1e-7)
        else:
            assert mine.status == _status_by_feasibility(a, b, bounds)


def test_equality_programs_match_scipy():
    # Equality rows through a known feasible point, plus a negated copy of
    # the first one, which phase 1 leaves redundant.
    rng = np.random.default_rng(14)
    for trial in range(60):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        x0 = rng.uniform(-1, 1, size=n)
        a_eq = rng.normal(size=(k, n))
        a_eq = np.vstack([a_eq, -a_eq[:1]])
        b_eq = a_eq @ x0
        a = rng.normal(size=(3, n))
        b = a @ x0 + rng.uniform(0, 1, size=3)
        c = rng.normal(size=n)
        bounds = [(-3.0, 3.0)] * n
        mine = solve_lp(c, a_ub=a, b_ub=b, a_eq=a_eq, b_eq=b_eq, bounds=bounds)
        ref = linprog(c, A_ub=a, b_ub=b, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                      method="highs")
        assert ref.status == 0 and mine.optimal
        assert mine.value == pytest.approx(ref.fun, abs=1e-7)
        assert np.abs(a_eq @ mine.x - b_eq).max() <= 1e-9


@pytest.mark.parametrize("name, kwargs", [
    ("c", dict(c=[np.nan], a_ub=[[1.0]], b_ub=[1.0])),
    ("a_ub", dict(c=[1.0], a_ub=[[np.inf]], b_ub=[1.0])),
    ("b_ub", dict(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[np.nan, 1.0])),
    ("a_eq", dict(c=[1.0], a_eq=[[np.nan]], b_eq=[0.0])),
    ("b_eq", dict(c=[1.0], a_eq=[[1.0]], b_eq=[-np.inf])),
    ("bounds", dict(c=[1.0], bounds=[(0.0, np.inf)])),
    ("bounds", dict(c=[1.0], bounds=[(np.nan, None)])),
])
def test_non_finite_data_rejected(name, kwargs):
    # Unchecked, a NaN cost came back optimal with value nan, inf in a_ub
    # optimal with value 0.0, and a NaN right-hand side unbounded.
    with pytest.raises(ValueError, match=f"solve_lp: {name} "):
        solve_lp(**kwargs)


# -- the row-by-row kernel the array kernel replaced --------------------------
#
# A verbatim copy of the scalar solver (pivot, phase and x -> u expansion
# loops).  The array kernel performs the same floating-point operations on
# every element, so statuses, bases and solutions must agree bit for bit.


def reference_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 1e-14:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def reference_run_phase(tableau, basis, cost, max_iter):
    m = tableau.shape[0]
    n = tableau.shape[1] - 1
    for _ in range(max_iter):
        reduced = cost[:n] - cost[basis] @ tableau[:, :n]
        entering = -1
        for j in range(n):
            if reduced[j] < -lp._COST_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        col = tableau[:, entering]
        rhs = tableau[:, n]
        leaving = -1
        best = np.inf
        for i in range(m):
            if col[i] > lp._PIVOT_TOL:
                ratio = rhs[i] / col[i]
                if ratio < best - 1e-12:
                    best = ratio
                    leaving = i
                elif leaving >= 0 and abs(ratio - best) <= 1e-12 and basis[i] < basis[leaving]:
                    leaving = i
        if leaving < 0:
            return "unbounded"
        reference_pivot(tableau, basis, leaving, entering)
    raise lp.LPError("simplex pivot budget exhausted")


def reference_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                    bounds=None, max_iter=20000):
    """``(LPSolution, (basis, tableau) or None)`` from the scalar solver,
    the pair as the last simplex phase left it."""
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    if a_ub is None:
        a_ub = np.zeros((0, n))
        b_ub = np.zeros(0)
    else:
        a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
        b_ub = np.asarray(b_ub, dtype=float).ravel()
    if a_eq is None:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    else:
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n)
        b_eq = np.asarray(b_eq, dtype=float).ravel()
    if bounds is None:
        bounds = [(None, None)] * n

    col_of = []
    shift = np.zeros(n)
    extra_rows = []
    ncols = 0
    for j, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            col_of.append([(ncols, 1.0), (ncols + 1, -1.0)])
            ncols += 2
        elif lo is not None and hi is None:
            shift[j] = lo
            col_of.append([(ncols, 1.0)])
            ncols += 1
        elif lo is None and hi is not None:
            shift[j] = hi
            col_of.append([(ncols, -1.0)])
            ncols += 1
        else:
            if hi < lo - 1e-12:
                return LPSolution("infeasible", None, None), None
            shift[j] = lo
            col_of.append([(ncols, 1.0)])
            extra_rows.append((ncols, hi - lo))
            ncols += 1

    def expand(mat):
        out = np.zeros((mat.shape[0], ncols))
        for j in range(n):
            for col, coef in col_of[j]:
                out[:, col] += coef * mat[:, j]
        return out

    ub_mat = expand(a_ub)
    ub_rhs = b_ub - a_ub @ shift
    eq_mat = expand(a_eq)
    eq_rhs = b_eq - a_eq @ shift
    for col, ub_val in extra_rows:
        row = np.zeros(ncols)
        row[col] = 1.0
        ub_mat = np.vstack([ub_mat, row])
        ub_rhs = np.append(ub_rhs, ub_val)

    n_ub = ub_mat.shape[0]
    n_eq = eq_mat.shape[0]
    m = n_ub + n_eq
    if m == 0:
        cu = expand(c.reshape(1, -1)).ravel()
        if np.any(cu < -lp._COST_TOL):
            return LPSolution("unbounded", None, None), None
        return LPSolution("optimal", shift.copy(), float(c @ shift)), None

    slack = np.vstack([np.eye(n_ub), np.zeros((n_eq, n_ub))]) if n_ub else np.zeros((m, 0))
    body = np.hstack([np.vstack([ub_mat, eq_mat]), slack])
    rhs = np.concatenate([ub_rhs, eq_rhs])
    neg = rhs < 0
    body[neg] *= -1.0
    rhs = np.abs(rhs)

    n_struct = body.shape[1]
    basis = np.full(m, -1, dtype=int)
    for i in range(n_ub):
        if not neg[i]:
            basis[i] = ncols + i
    need_art = [i for i in range(m) if basis[i] < 0]
    n_art = len(need_art)
    art = np.zeros((m, n_art))
    for k, i in enumerate(need_art):
        art[i, k] = 1.0
        basis[i] = n_struct + k
    tableau = np.hstack([body, art, rhs.reshape(-1, 1)])
    total = n_struct + n_art

    budget = max(max_iter, 50 * (m + total))
    if n_art:
        cost1 = np.zeros(total)
        cost1[n_struct:] = 1.0
        status = reference_run_phase(tableau, basis, cost1, budget)
        if status != "optimal":
            raise lp.LPError("phase-1 simplex did not reach optimality")
        if cost1[basis] @ tableau[:, total] > lp._PHASE1_TOL:
            return LPSolution("infeasible", None, None), (basis, tableau)
        keep_rows = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n_struct:
                piv = -1
                for j in range(n_struct):
                    if abs(tableau[i, j]) > 1e-9:
                        piv = j
                        break
                if piv >= 0:
                    reference_pivot(tableau, basis, i, piv)
                else:
                    keep_rows[i] = False
        if not keep_rows.all():
            tableau = tableau[keep_rows]
            basis = basis[keep_rows]
            m = tableau.shape[0]
        tableau = np.hstack([tableau[:, :n_struct], tableau[:, total:]])

    cost2 = np.zeros(n_struct)
    cu = expand(c.reshape(1, -1)).ravel()
    cost2[:ncols] = cu
    status = reference_run_phase(tableau, basis, cost2, budget)
    if status == "unbounded":
        return LPSolution("unbounded", None, None), (basis, tableau)

    u = np.zeros(n_struct)
    for i in range(m):
        if basis[i] < n_struct:
            u[basis[i]] = tableau[i, -1]
    x = shift.copy()
    for j in range(n):
        for col, coef in col_of[j]:
            x[j] += coef * u[col]
    return LPSolution("optimal", x, float(c @ x)), (basis, tableau)


def solve_with_final(**program):
    """``solve_lp`` plus the basis and tableau its last simplex phase
    ended on (None when no phase ran).  The cache is cleared first, so
    the program is the first of its body and is solved from scratch."""
    lp.clear_cache()
    finals = []
    run_phase = lp._run_phase

    def recording(tableau, basis, cost, max_iter, path=None):
        try:
            return run_phase(tableau, basis, cost, max_iter, path)
        finally:
            finals.append((basis.copy(), tableau.copy()))

    lp._run_phase = recording
    try:
        sol = solve_lp(**program)
    finally:
        lp._run_phase = run_phase
    return sol, (finals[-1] if finals else None)


def bit_identical(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _bounds(draw, n, rng):
    bounds = []
    for _ in range(n):
        lo, hi = np.round(rng.uniform(-3, 3, size=2), 1)
        lo, hi = min(lo, hi), max(lo, hi) + 0.5
        bounds.append(draw(st.sampled_from(
            [(None, None), (lo, None), (None, hi), (lo, hi)])))
    if draw(st.integers(0, 19)) == 0:
        bounds[-1] = (2.0, 1.0)  # crossed: infeasible before any pivot
    return bounds


@st.composite
def programs(draw):
    """Random, degenerate, infeasible and unbounded programs.

    Degenerate ones use small integers, so ratio-test ties are exact,
    duplicate some rows and put zeros on many right-hand sides; their
    equality rows often have a zero right-hand side, which can leave an
    artificial basic after phase 1.  Some are nudged by 1e-13..1e-7, so
    ratios fall on both sides of the 1e-12 tie band and phase-1 rows on
    both sides of the 1e-9 clean-up threshold.  Equality rows pass
    through a drawn point; without inequality rows, a duplicated
    equality row is left for the phase-1 clean-up to drop.
    """
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    m_ub = draw(st.integers(0, 6))
    m_eq = draw(st.integers(0, min(2, n)))
    return _program(draw, kind, rng, n, m_ub, m_eq)


KINDS = ["random", "degenerate", "degenerate", "infeasible", "unbounded"]


def _program(draw, kind, rng, n, m_ub, m_eq):
    if kind == "degenerate":
        a_ub = rng.integers(-2, 3, size=(m_ub, n)).astype(float)
        b_ub = rng.integers(0, 3, size=m_ub).astype(float)
        b_ub[rng.random(m_ub) < 0.5] = 0.0
        if m_ub:
            dup = rng.integers(0, m_ub, size=2)
            a_ub, b_ub = np.vstack([a_ub, a_ub[dup]]), np.concatenate([b_ub, b_ub[dup]])
        c = rng.integers(-2, 3, size=n).astype(float)
    else:
        a_ub = rng.normal(size=(m_ub, n))
        b_ub = rng.normal(size=m_ub) + (0.0 if kind == "unbounded" else 1.0)
        c = rng.normal(size=n)
    if kind == "infeasible":
        row = rng.normal(size=n)
        a_ub = np.vstack([a_ub, row, -row])
        b_ub = np.concatenate([b_ub, [0.5, -1.0]])
    program = {"c": c, "a_ub": a_ub, "b_ub": b_ub}
    if m_eq:
        if kind == "degenerate":
            point = rng.integers(-1, 2, size=n).astype(float)
            a_eq = rng.integers(-2, 3, size=(m_eq, n)).astype(float)
        else:
            point = rng.uniform(-1, 1, size=n)
            a_eq = rng.normal(size=(m_eq, n))
        if draw(st.booleans()):
            a_eq = np.vstack([a_eq, a_eq[:1]])
        program.update(a_eq=a_eq, b_eq=a_eq @ point)
    if kind == "degenerate" and draw(st.booleans()):
        for key in ("a_ub", "b_ub", "a_eq"):
            if key in program:
                data = program[key]
                nudge = (rng.choice([-1.0, 1.0], size=data.shape)
                         * 10.0 ** rng.uniform(-13, -7, size=data.shape))
                program[key] = data + np.where(rng.random(data.shape) < 0.3,
                                               nudge, 0.0)
    if kind != "unbounded" or draw(st.booleans()):
        program["bounds"] = _bounds(draw, n, rng)
    return program


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(programs())
def test_array_kernel_matches_reference(program):
    ref, ref_final = reference_solve(**program)
    sol, final = solve_with_final(**program)
    assert sol.status == ref.status
    if ref_final is None:
        assert final is None
    else:
        assert np.array_equal(final[0], ref_final[0])  # basis
        assert bit_identical(final[1], ref_final[1])   # tableau
    if ref.x is None:
        assert sol.x is None and sol.value is None
    else:
        assert bit_identical(sol.x, ref.x)
        assert sol.value == ref.value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 12))
def test_pivot_matches_reference(seed, m, n):
    # Entries near the 1e-14 row-skip threshold and signed zeros included.
    rng = np.random.default_rng(seed)
    tableau = rng.normal(size=(m, n))
    tableau *= 10.0 ** rng.integers(-16, 3, size=(m, n))
    tableau[rng.random((m, n)) < 0.2] = 0.0
    tableau[rng.random((m, n)) < 0.1] = -0.0
    row, col = int(rng.integers(m)), int(rng.integers(n))
    tableau[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    basis = np.arange(m)
    want, want_basis = tableau.copy(), basis.copy()
    reference_pivot(want, want_basis, row, col)
    lp._pivot(tableau, basis, row, col)
    assert bit_identical(tableau, want)
    assert np.array_equal(basis, want_basis)


# -- pivot-path memo ------------------------------------------------------------
#
# ``PathMemo`` against a solve from scratch: every right-hand side solved
# through one memo must end with the status, x and value bits of its own
# ``solve_lp`` on an empty cache, whether the memo replays it or solves
# it from scratch.  ``solve_lp`` itself replays through its cache, so it
# is not the oracle here.


def scratch_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    """``solve_lp`` without the cache: both stages, then the simplex."""
    prog = lp.prepare_rhs(lp.prepare_body(c, a_ub, a_eq, bounds), b_ub, b_eq)
    return prog if isinstance(prog, LPSolution) else lp._simplex(prog)


def assert_same_solution(got, want):
    assert got.status == want.status
    if want.x is None:
        assert got.x is None and got.value is None
    else:
        assert bit_identical(got.x, want.x)
        assert got.value == want.value
    assert got.basis == want.basis


def memo_of(program):
    return lp.PathMemo(lp.prepare_body(program["c"], program.get("a_ub"),
                                       program.get("a_eq"),
                                       program.get("bounds")))


def assert_memo_matches(program, sides, memo=None):
    """Solve the program's body for every ``(b_ub, b_eq)`` in order
    through one memo, against ``scratch_solve``; returns the memo."""
    memo = memo or memo_of(program)
    for b_ub, b_eq in sides:
        want = scratch_solve(**{**program, "b_ub": b_ub, "b_eq": b_eq})
        assert_same_solution(memo.solve(b_ub, b_eq), want)
    return memo


@st.composite
def rhs_sequences(draw):
    """A program drawn like ``programs`` and 2-8 right-hand sides of its
    body: the drawn one, then repeats, perturbations and sign flips of
    earlier ones.  Perturbations range from inside the 1e-12 tie band to
    0.5, so paths part at every depth; flips change the negated rows."""
    program = draw(programs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sides = [(program["b_ub"], program.get("b_eq"))]
    for _ in range(draw(st.integers(1, 7))):
        b_ub, b_eq = sides[draw(st.integers(0, len(sides) - 1))]
        how = draw(st.sampled_from(["repeat", "perturb", "flip"]))
        if how == "perturb":
            scale = draw(st.sampled_from([5e-13, 1e-9, 1e-4, 0.5]))
            b_ub = b_ub + scale * rng.normal(size=b_ub.shape)
            if b_eq is not None and draw(st.booleans()):
                b_eq = b_eq + scale * rng.normal(size=b_eq.shape)
        elif how == "flip":
            b_ub = np.where(rng.random(b_ub.shape) < 0.5, -b_ub, b_ub)
        sides.append((b_ub, b_eq))
    return program, sides


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rhs_sequences())
def test_memo_matches_solve_lp(case):
    # A second round replays every right-hand side along the path that it,
    # or an earlier one, recorded in the first; one found infeasible in
    # phase 1 only where a feasible one recorded the end of that phase.
    program, sides = case
    memo = assert_memo_matches(program, sides)
    assert memo.counts["replayed"] + memo.counts["solved"] == len(sides)
    replayed = memo.counts["replayed"]
    assert_memo_matches(program, sides, memo)
    replayed = memo.counts["replayed"] - replayed
    if memo.body.solution is not None:
        assert replayed == 0
    else:
        feasible = sum(scratch_solve(**{**program, "b_ub": b_ub, "b_eq": b_eq})
                       .status != "infeasible" for b_ub, b_eq in sides)
        assert feasible <= replayed <= len(sides)


def _negated_rows_program():
    rng = np.random.default_rng(11)
    return {"c": rng.normal(size=3), "a_ub": rng.normal(size=(9, 3)),
            "b_ub": rng.uniform(-0.5, 2.0, size=9)}


def test_memo_hit_makes_no_pivot(monkeypatch):
    # A right-hand side that retraces a recorded path is replayed on its
    # column alone: no tableau, no pivot.
    program = _negated_rows_program()
    b_ub = program["b_ub"]
    assert (b_ub < 0).any()  # phase 1 runs
    sides = [b_ub, b_ub.copy(), b_ub * (1.0 + 1e-9)]
    wants = [scratch_solve(**{**program, "b_ub": side}) for side in sides]
    pivots = []
    pivot = lp._pivot

    def counting(*args):
        pivots.append(args[2])
        pivot(*args)

    monkeypatch.setattr(lp, "_pivot", counting)
    memo = memo_of(program)
    assert_same_solution(memo.solve(b_ub), wants[0])
    assert wants[0].optimal and len(pivots) > 2
    del pivots[:]
    for side, want in zip(sides, wants):
        assert_same_solution(memo.solve(side), want)
    assert memo.counts["replayed"] == 3 and not pivots


def test_memo_node_cap_stops_recording(monkeypatch):
    # Past the cap, misses are solved but not recorded; every result keeps
    # its bits.
    rng = np.random.default_rng(11)
    program = {"c": rng.normal(size=3), "a_ub": rng.normal(size=(9, 3))}
    b_ub = rng.uniform(0.5, 2.0, size=9)
    sides = [(b_ub + 0.3 * rng.normal(size=9), None) for _ in range(40)]
    free = assert_memo_matches(program, sides)
    cap = free.nodes // 2
    monkeypatch.setattr(lp, "_MEMO_NODES", cap)
    capped = assert_memo_matches(program, sides)
    assert 0 < capped.nodes <= cap and capped.counts["nodes"] == capped.nodes
    assert capped.counts["solved"] > free.counts["solved"]


def test_memo_infeasible_unbounded_and_degenerate():
    # A bounded program, an infeasible one, an unbounded one and a
    # degenerate optimum where three rows are active, each solved for its
    # right-hand side, a repeat, a perturbation and a sign flip.  With no
    # feasible program to record the end of phase 1, the infeasible one
    # is never replayed.
    programs_ = [
        ([1.0, 1.0], [[1, 0], [0, 1], [-1, -1], [-1, 0]], [2, 2, -1, 3]),
        ([1.0, 1.0], [[1, 0], [0, 1], [-1, -1], [-1, 0]], [1, 1, -3, 5]),
        ([-1.0, -1.0], [[1, -1], [-1, 1], [-1, -1], [-1, 0]], [1, 1, -1, 10]),
        ([-1.0, -1.0], [[1, 0], [0, 1], [1, 1], [-1, -1]], [1, 1, 2, -1]),
    ]
    statuses = []
    for c, a_ub, b_ub in programs_:
        b_ub = np.array(b_ub, dtype=float)
        program = {"c": c, "a_ub": a_ub}
        memo = assert_memo_matches(program, [
            (b_ub, None), (b_ub, None), (b_ub + 1e-9, None),
            (-b_ub, None), (b_ub, None)])
        statuses.append(memo.solve(b_ub).status)
        assert memo.counts["replayed"] >= (statuses[-1] != "infeasible") * 3
    assert statuses == ["optimal", "infeasible", "unbounded", "optimal"]


@pytest.mark.parametrize("offset", [0.0, 5e-13, 1e-12, 1.5e-12, 3e-12, -5e-13])
def test_memo_ratio_ties(offset):
    # Two rows bound x0 at 1 and 1 + offset: an exact tie, ties inside and
    # at the edge of the 1e-12 band, and clear winners.  Each order of the
    # rows is one body, whose memo first records the exact tie and a clear
    # winner either way, then meets the offset.
    for order in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
        rows = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        program = {"c": [-1.0, -1.0], "a_ub": [rows[i] for i in order]}
        sides = []
        for shift in (0.0, 1.0, -0.5, offset):
            rhs = [1.0, 1.0 + shift, 2.0]
            sides.append(([rhs[i] for i in order], None))
        memo = assert_memo_matches(program, sides)
        assert memo.counts["replayed"] >= 1


def reference_scan(rows, ratios, basis):
    """The leaving-row scan as first written, on precomputed ratios."""
    leaving, best = -1, math.inf
    for i, ratio in zip(rows, ratios):
        if ratio < best - lp._TIE:
            best, leaving = ratio, i
        elif (leaving >= 0 and abs(ratio - best) <= lp._TIE
              and basis[i] < basis[leaving]):
            leaving = i
    return leaving


def test_scan_leaving_is_the_reference():
    # Ratio columns with exact ties, ties inside and just outside the
    # band, and no candidate rows at all.
    rng = np.random.default_rng(5)
    tied = 0
    for _ in range(2000):
        m = int(rng.integers(1, 9))
        col = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], size=m)
        rhs = rng.choice([0.0, 1.0, 2.0], size=m) * col
        rhs += rng.choice([0.0, 0.0, 4e-13, -4e-13, 1e-12, 2.5e-12],
                          size=m) * col
        basis = rng.permutation(20)[:m]
        rows = (col > lp._PIVOT_TOL).nonzero()[0]
        ratios = rhs[rows] / col[rows]
        want = reference_scan(rows.tolist(), ratios.tolist(), basis)
        assert lp._scan_leaving(rows.tolist(), col[rows].tolist(),
                                rhs.tolist(), basis) == want
        tied += rows.size and np.sum(ratios - ratios.min() <= 1e-12) > 1
    assert tied > 300


def _phase1_ends(memo):
    stack = [root for root, _ in memo.roots.values()]
    while stack:
        node = stack.pop()
        stack.extend(edge[-1] for edge in node.edges.values())
        if node.end is not None:
            yield node.end
            stack.extend([node.end[4]] if node.end[4] else [])


def test_memo_drops_redundant_row():
    # Equality rows only: a duplicated row leaves an artificial basic on a
    # zero row after phase 1, which is dropped; a replay drops it too, here
    # from the middle of the column.  An inconsistent right-hand side is
    # found infeasible at the same phase-1 end.
    a_eq = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]])
    program = {"c": [1.0, 1.0], "a_eq": a_eq,
               "bounds": [(0.0, None), (0.0, None)]}
    points = ([0.3, 0.2], [0.3, 0.2], [0.5, 0.1], [0.2, 0.4])
    memo = assert_memo_matches(
        program, [(None, a_eq @ point) for point in points]
        + [(None, [1.0, 2.0, 1.0])])
    assert memo.counts["replayed"] == 4
    assert [end[3] for end in _phase1_ends(memo)] == [[0, 2]]  # rows kept
    assert memo.solve(b_eq=[1.0, 2.0, 1.0]).status == "infeasible"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_rhs_update_is_the_pivot(seed, m):
    # The replay's update of a right-hand-side list gives the bits of
    # ``_pivot`` on the tableau's last column.  Entries near the 1e-14
    # row-skip threshold and signed zeros included.
    rng = np.random.default_rng(seed)
    tableau = rng.normal(size=(m, 3))
    tableau *= 10.0 ** rng.integers(-16, 3, size=(m, 3))
    tableau[rng.random((m, 3)) < 0.2] = 0.0
    tableau[rng.random((m, 3)) < 0.1] = -0.0
    row = int(rng.integers(m))
    tableau[row, 0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    rhs = tableau[:, -1].tolist()
    lp._update(rhs, *lp._edge(tableau[:, 0].copy(), row))
    lp._pivot(tableau, np.arange(m), row, 0)
    assert bit_identical(np.array(rhs), tableau[:, -1])


def test_memo_budget_exhausted_on_a_miss(monkeypatch):
    monkeypatch.setattr(lp, "_budget", lambda rows, cols: 1)
    program = _negated_rows_program()
    with pytest.raises(lp.LPError):
        solve_lp(**program)
    memo = memo_of(program)
    with pytest.raises(lp.LPError):
        memo.solve(program["b_ub"])
    assert memo.nodes == 0 and not memo.roots


# -- replays that leave the paths -----------------------------------------------
#
# A replay that leaves the recorded paths returns None; the program is
# solved from scratch and its path grafted from the root.  Every result
# must keep the bits of a solve from scratch.


def divergence_case(seed, n, rows, at_origin, eq_rows, twin, bounded, scales,
                    shifts):
    """A program and right-hand sides of its body around one point (the
    origin if ``at_origin``, so that free variables and inequality rows
    alone need no phase 1), each side a normal perturbation of the first
    at one of ``scales``, so most retrace a prefix of a recorded path and
    leave it in phase 1 or 2.  With ``twin``, the first of ``eq_rows``
    equality rows is duplicated, which leaves an artificial on a
    redundant row after phase 1; each side shifts the duplicate off its
    twin by its entry of ``shifts``, and a nonzero shift ends phase 1
    infeasible."""
    rng = np.random.default_rng(seed)
    point = rng.uniform(-1, 1, size=n) * (0.0 if at_origin else 1.0)
    a_ub = rng.normal(size=(rows, n))
    b_ub = a_ub @ point + rng.uniform(0.05, 1.0, size=rows)
    program = {"c": rng.normal(size=n), "a_ub": a_ub,
               "bounds": [(-2.0, 2.0)] * n if bounded else None}
    b_eq = None
    if eq_rows:
        a_eq = rng.normal(size=(eq_rows, n))
        if twin:
            a_eq = np.vstack([a_eq, a_eq[:1]])
        program["a_eq"], b_eq = a_eq, a_eq @ point
    sides = [(b_ub, b_eq)]
    for scale, shift in zip(scales, shifts):
        side_ub = b_ub + scale * rng.normal(size=b_ub.shape)
        side_eq = None
        if b_eq is not None:
            side_eq = b_eq + scale * rng.normal(size=b_eq.shape)
            if twin:
                side_eq[-1] = side_eq[0] + shift
        sides.append((side_ub, side_eq))
    return program, sides


@st.composite
def divergence_sequences(draw):
    """A ``divergence_case`` of 2-4 variables, 2-7 inequality rows, up to
    two equality rows and 4-10 right-hand sides."""
    count = draw(st.integers(3, 9))
    eq_rows = draw(st.sampled_from([0, 0, 1, 2]))
    return divergence_case(
        draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 4)),
        draw(st.integers(2, 7)), draw(st.booleans()), eq_rows,
        eq_rows > 0 and draw(st.booleans()), draw(st.booleans()),
        draw(st.lists(st.sampled_from([1e-6, 1e-3, 0.05, 0.3]),
                      min_size=count, max_size=count)),
        draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.5]),
                      min_size=count, max_size=count)))


# Drawn examples meet every kind of divergence only now and then, so these
# fixed cases, at least one per kind, always run: (seed, at the origin,
# equality rows, twin).
DIVERGENCES = [divergence_case(seed, 4, 7, at_origin, eq_rows, twin, False,
                               [0.05, 0.3] * 3, [0.0, 0.5, 0.0] * 2)
               for seed, at_origin, eq_rows, twin in [
                   (0, False, 1, False), (1, False, 1, False),
                   (0, True, 0, False), (0, False, 1, True),
                   (1, False, 1, True)]]


def test_resumed_solves_match_solve_lp(monkeypatch):
    # Every right-hand side through one memo ends with the bits of its own
    # solve from scratch.  Replays take a recorded pivot and then leave
    # the paths in phase 1, after a whole phase 1, in a program without
    # one, with a redundant row dropped and at an infeasible phase-1 end.
    seen, walks, left = set(), [], []
    walk, replay, simplex = lp._walk, lp.PathMemo._replay, lp._simplex

    def walking(node, rhs):
        stop = walk(node, rhs)
        walks.append(stop[0] is not node)  # took a recorded pivot
        return stop

    def replaying(memo, node, phase1, rhs):
        del walks[:]
        sol = replay(memo, node, phase1, rhs)
        if sol is None and any(walks):
            left.append("no phase 1" if not phase1 else
                        "phase 1" if len(walks) == 1 else "after phase 1")
        return sol

    def recording(prog, path1=None, drives=None, path2=None):
        phase1 = prog.n_art > 0
        sol = simplex(prog, path1, drives, path2)
        if left:
            seen.add(left.pop())
            if phase1 and any(col is None for _, col in drives):
                seen.add("redundant row")
            if sol.status == "infeasible":
                seen.add("infeasible")
        return sol

    def check(case):
        program, sides = case
        memo = assert_memo_matches(program, sides)
        assert memo.counts["replayed"] + memo.counts["solved"] == len(sides)

    monkeypatch.setattr(lp, "_walk", walking)
    monkeypatch.setattr(lp.PathMemo, "_replay", replaying)
    monkeypatch.setattr(lp, "_simplex", recording)
    for case in DIVERGENCES:
        check(case)
    assert seen == {"phase 1", "after phase 1", "no phase 1", "redundant row",
                    "infeasible"}
    settings(max_examples=200, deadline=None, derandomize=True,
             database=None)(given(divergence_sequences())(check))()


@pytest.mark.parametrize("seed", range(4))
def test_solution_is_the_add_at_form(seed):
    # Free, one-sided and capped variables with signed-zero bounds, and
    # final right-hand sides with signed zeros: the list form gives the
    # bits of ``np.add.at`` over the columns, and of ``c @ x``.
    rng = np.random.default_rng(seed)
    ends = [0.0, -0.0, 1.5, -2.0]
    for _ in range(250):
        n = int(rng.integers(1, 5))
        bounds = []
        for _ in range(n):
            lo, hi = sorted(rng.choice(ends, size=2), key=float)
            kind = int(rng.integers(4))
            bounds.append([(None, None), (lo, None), (None, hi),
                           (lo, hi)][kind] if lo < hi or kind < 3 else (lo, lo))
        body = lp.prepare_body(rng.choice([0.0, -0.0, 1.0, -1.0], size=n),
                               rng.normal(size=(2, n)), bounds=bounds)
        m, n_struct = body.block.shape
        basis = rng.permutation(n_struct)[:m]
        rhs = rng.choice([0.0, -0.0, 1.25, -3.5, rng.normal()], size=m)
        u = np.zeros(n_struct)
        u[basis] = rhs
        x = body.shift.copy()
        np.add.at(x, body.var_of, body.coef * u[:body.var_of.size])
        got = lp._solution(body, basis.tolist(), rhs.tolist())
        assert bit_identical(got.x, x)
        assert got.value.hex() == float(body.c @ x).hex()


@pytest.mark.parametrize("seed", range(3))
def test_final_basis_leaves_the_tight_rows_nonbasic(seed):
    # Free variables take two columns each, then come the slacks of the
    # a_ub rows: a row whose slack is not in the final basis holds with
    # equality at the optimum.
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        eye = np.eye(n)
        a = np.vstack([rng.normal(size=(int(rng.integers(1, 5)), n)),
                       eye, -eye])
        b = rng.uniform(0.5, 1.5, len(a))
        sol = solve_lp(rng.normal(size=n), a_ub=a, b_ub=b)
        assert sol.optimal and len(sol.basis) == len(a)
        tight = [i for i in range(len(a)) if 2 * n + i not in sol.basis]
        assert len(tight) >= n
        assert np.abs(a[tight] @ sol.x - b[tight]).max() <= 1e-9


# -- body cache ---------------------------------------------------------------
#
# ``solve_lp`` keys a cache by the exact body; from a body's second
# program on it solves through the body's memo.  Every result must keep
# the bits of a solve from scratch.


def test_cache_matches_a_scratch_solve():
    # Hypothesis programs, each solved for its right-hand sides twice in
    # a row through ``solve_lp``: the first program of a body is solved
    # from scratch, the second through a fresh memo, later ones replay.
    lp.clear_cache()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(rhs_sequences())
    def check(case):
        program, sides = case
        for b_ub, b_eq in sides + sides:
            side = {**program, "b_ub": b_ub, "b_eq": b_eq}
            assert_same_solution(solve_lp(**side), scratch_solve(**side))

    check()
    counts = lp.cache_counts()
    assert counts["calls"] == counts["replayed"] + counts["solved"]
    assert min(counts["replayed"], counts["solved"], counts["nodes"]) > 0


def test_cache_marks_a_body_then_memoises_it():
    program = _negated_rows_program()
    want = scratch_solve(**program)
    assert_same_solution(solve_lp(**program), want)
    (body,) = lp._bodies.values()
    assert isinstance(body, lp.LPBody)
    assert lp.cache_counts() == {"calls": 1, "replayed": 0, "solved": 1,
                                 "nodes": 0}
    assert_same_solution(solve_lp(**program), want)
    (memo,) = lp._bodies.values()
    assert isinstance(memo, lp.PathMemo) and memo.body is body
    nodes = lp.cache_counts()["nodes"]
    assert nodes == memo.nodes > 0
    assert_same_solution(solve_lp(**program), want)
    assert lp.cache_counts() == {"calls": 3, "replayed": 1, "solved": 2,
                                 "nodes": nodes}


def test_cache_key_is_the_exact_body():
    # Signed zeros in c, a_ub and bounds, None against an empty matrix,
    # and lists against arrays of other shapes are all different bodies;
    # the same values as a list and as an array are one.
    a_ub = [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
    b_ub = [1.0, 1.0, 0.0]
    variants = [
        {"c": [0.0, -1.0], "a_ub": a_ub},
        {"c": np.array([0.0, -1.0]), "a_ub": np.array(a_ub)},
        {"c": [-0.0, -1.0], "a_ub": a_ub},
        {"c": [0.0, -1.0], "a_ub": [[1.0, -0.0], *a_ub[1:]]},
        {"c": [0.0, -1.0], "a_ub": a_ub, "bounds": [(0.0, None), (None, 1.0)]},
        {"c": [0.0, -1.0], "a_ub": a_ub, "bounds": [(-0.0, None), (None, 1.0)]},
        {"c": [0.0, -1.0], "a_ub": a_ub, "a_eq": np.zeros((0, 2)), "b_eq": []},
        {"c": [[0.0], [-1.0]], "a_ub": a_ub},
    ]
    for variant in variants:
        side = {**variant, "b_ub": b_ub}
        assert_same_solution(solve_lp(**side), scratch_solve(**side))
    assert len(lp._bodies) == len(variants) - 1


def test_cache_evicts_the_oldest_body(monkeypatch):
    monkeypatch.setattr(lp, "_CACHE_BODIES", 2)
    rng = np.random.default_rng(4)
    programs_ = [{"c": rng.normal(size=2), "a_ub": rng.normal(size=(5, 2)),
                  "b_ub": rng.uniform(0.5, 1.5, size=5)} for _ in range(3)]
    for program in programs_ + programs_[1:] + programs_[:1]:
        assert_same_solution(solve_lp(**program), scratch_solve(**program))
    assert len(lp._bodies) == 2
    # The first body was dropped for the third, so its repeat was a first
    # program again; the other two were memoised.
    assert lp.cache_counts()["replayed"] == 0
    assert [type(entry) for entry in lp._bodies.values()] == [lp.PathMemo,
                                                             lp.LPBody]


def test_cache_owns_its_bodies():
    # A caller that changes its arrays after the call, or the x of a
    # returned solution, changes no later result.
    c = np.array([1.0, 1.0])
    program = {"a_ub": np.array([[-1.0, 0.0], [0.0, -1.0]]), "b_ub": [1.0, 2.0]}
    want = scratch_solve(c, **program)
    assert_same_solution(solve_lp(c, **program), want)
    c[:] = -1.0
    assert solve_lp(c, **program).status == "unbounded"
    for _ in range(3):
        sol = solve_lp([1.0, 1.0], **program)
        assert_same_solution(sol, want)
        sol.x[:] = 7.0
    decided = {"c": [1.0], "bounds": [(0.5, None)]}
    for _ in range(3):
        sol = solve_lp(**decided)
        assert_same_solution(sol, scratch_solve(**decided))
        sol.x[:] = 7.0


def test_memo_validates_a_missed_rhs_once(monkeypatch):
    # A miss reads the right-hand side once; a non-finite one is still
    # named, also once the body is memoised.
    program = _negated_rows_program()
    reads = []
    vector = lp._vector

    def counting(name, b):
        reads.append(name)
        return vector(name, b)

    monkeypatch.setattr(lp, "_vector", counting)
    memo = memo_of(program)
    memo.solve(program["b_ub"])
    assert memo.counts["solved"] == 1 and reads == ["b_ub"]
    for _ in range(2):
        solve_lp(**program)
    bad = program["b_ub"].copy()
    bad[2] = np.nan
    with pytest.raises(ValueError, match="solve_lp: b_ub has a non-finite"):
        solve_lp(**{**program, "b_ub": bad})
    with pytest.raises(ValueError, match="solve_lp: b_eq has a non-finite"):
        memo_of({"c": [1.0], "a_eq": [[1.0]]}).solve(b_eq=[np.inf])
    assert lp.cache_counts()["calls"] == 3 and lp.cache_counts()["solved"] == 2


# -- body and right-hand-side stages -------------------------------------------
#
# ``solve_lp`` runs ``prepare_body`` and then ``prepare_rhs``.  The
# one-stage builder they replaced is kept below as the oracle: one body
# completed with any right-hand side must give that builder's tableau,
# basis, artificial count, budget and decided solution bit for bit.


def one_stage_prepare_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                         bounds=None):
    """``(tableau, basis, n_struct, n_art, budget, shift, var_of, coef,
    cost2)`` of the program, or its LPSolution when decided before any
    pivot."""
    c = np.asarray(c, dtype=float).ravel()
    lp._finite("c", c)
    n = c.size
    if a_ub is None:
        a_ub, b_ub = np.zeros((0, n)), np.zeros(0)
    else:
        a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
        b_ub = np.asarray(b_ub, dtype=float).ravel()
        lp._finite("a_ub", a_ub)
        lp._finite("b_ub", b_ub)
    if a_eq is None:
        a_eq, b_eq = np.zeros((0, n)), np.zeros(0)
    else:
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n)
        b_eq = np.asarray(b_eq, dtype=float).ravel()
        lp._finite("a_eq", a_eq)
        lp._finite("b_eq", b_eq)
    if bounds is None:
        bounds = [(None, None)] * n
    var_of, coef, shift, capped = [], [], np.zeros(n), []
    for j, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            var_of += [j, j]
            coef += [1.0, -1.0]
            continue
        if hi is None:
            shift[j] = lo
            coef.append(1.0)
        elif lo is None:
            shift[j] = hi
            coef.append(-1.0)
        else:
            if hi < lo - 1e-12:
                return LPSolution("infeasible", None, None)
            shift[j] = lo
            capped.append((len(var_of), hi - lo))
            coef.append(1.0)
        var_of.append(j)
    ncols = len(var_of)
    var_of, coef = np.array(var_of, dtype=int), np.array(coef)
    n_a = a_ub.shape[0]
    n_ub = n_a + len(capped)
    n_eq = a_eq.shape[0]
    m = n_ub + n_eq
    if m == 0:
        if np.any(coef * c[var_of] < -lp._COST_TOL):
            return LPSolution("unbounded", None, None)
        return LPSolution("optimal", shift.copy(), float(c @ shift))
    rhs = np.empty(m)
    rhs[:n_a] = b_ub - a_ub @ shift
    if capped:
        rhs[n_a:n_ub] = [width for _, width in capped]
    if n_eq:
        rhs[n_ub:] = b_eq - a_eq @ shift
    neg = rhs < 0
    needs_art = neg.copy()
    needs_art[n_ub:] = True
    n_struct = ncols + n_ub
    need_art = needs_art.nonzero()[0]
    n_art = need_art.size
    total = n_struct + n_art
    basis = np.arange(ncols, ncols + m)
    tableau = np.zeros((m, total + 1))
    tableau[:n_a, :ncols] += coef * a_ub[:, var_of]
    if capped:
        tableau[np.arange(n_a, n_ub), [col for col, _ in capped]] = 1.0
    if n_eq:
        tableau[n_ub:, :ncols] += coef * a_eq[:, var_of]
    tableau[np.arange(n_ub), np.arange(ncols, n_struct)] = 1.0
    if n_art:
        tableau[neg, :n_struct] *= -1.0
        art_cols = np.arange(n_struct, total)
        tableau[need_art, art_cols] = 1.0
        basis[need_art] = art_cols
    tableau[:, total] = np.abs(rhs)
    cost2 = np.zeros(n_struct)
    cost2[:ncols] += coef * c[var_of]
    return (tableau, basis, n_struct, n_art, lp._budget(m, total), shift,
            var_of, coef, cost2)


def assert_same_preparation(got, want):
    if isinstance(want, LPSolution):
        assert isinstance(got, LPSolution)
        assert_same_solution(got, want)
        return
    tableau, basis, n_struct, n_art, budget, *body = want
    assert bit_identical(got.tableau, tableau)
    assert np.array_equal(got.basis, basis)
    assert (got.n_struct, got.n_art, got.budget) == (n_struct, n_art, budget)
    for got_part, want_part in zip(
            (got.body.shift, got.body.var_of, got.body.coef, got.body.cost2),
            body):
        assert bit_identical(got_part, want_part)


RHS_SIGNS = ["drawn", "negative", "positive", "signed-zero"]


def _right_hand_side(b, sign, rng):
    if sign == "negative":
        return -np.abs(b) - 0.5
    if sign == "positive":
        return np.abs(b) + 0.5
    if sign == "signed-zero":
        return rng.choice([0.0, -0.0], size=b.shape)
    return b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(programs(), st.sampled_from(RHS_SIGNS), st.integers(0, 2**32 - 1))
def test_body_then_rhs_is_the_one_stage_builder(program, sign, seed):
    # One body, completed with the drawn right-hand sides and three
    # redrawn ones: each must be the one-stage tableau of its program.
    rng = np.random.default_rng(seed)
    body = lp.prepare_body(program["c"], program["a_ub"], program.get("a_eq"),
                           program.get("bounds"))
    for _ in range(4):
        b_ub = _right_hand_side(program["b_ub"], sign, rng)
        b_eq = program.get("b_eq")
        if b_eq is not None:
            b_eq = _right_hand_side(b_eq, sign, rng)
        want = one_stage_prepare_lp(**{**program, "b_ub": b_ub, "b_eq": b_eq})
        assert_same_preparation(lp.prepare_rhs(body, b_ub, b_eq), want)
        fresh = lp.prepare_body(program["c"], program["a_ub"],
                                program.get("a_eq"), program.get("bounds"))
        assert_same_preparation(lp.prepare_rhs(fresh, b_ub, b_eq), want)
        program["b_ub"] = rng.normal(size=program["b_ub"].shape)


@pytest.mark.parametrize("bounds, status", [
    ([(0.0, 1.0), (2.0, 1.0)], "infeasible"),
    ([(0.0, None), (None, 1.0)], None),
    ([(-1.0, 1.0), (None, None)], None),
], ids=["crossed", "one-sided", "two-sided-and-free"])
def test_rhs_stage_completes_bodies_of_every_bound_kind(bounds, status):
    a_ub = [[1.0, 2.0], [-1.0, 0.5]]
    a_eq = [[1.0, 1.0]]
    body = lp.prepare_body([1.0, -1.0], a_ub, a_eq, bounds)
    for b_ub, b_eq in (([1.0, 1.0], [0.5]), ([-1.0, -0.0], [-0.5]),
                       ([0.0, -0.0], [0.0])):
        want = one_stage_prepare_lp([1.0, -1.0], a_ub, b_ub, a_eq, b_eq,
                                    bounds)
        got = lp.prepare_rhs(body, b_ub, b_eq)
        assert_same_preparation(got, want)
        if status is not None:
            assert got.status == status


def test_body_without_constraints_is_decided():
    body = lp.prepare_body([1.0], bounds=[(0.5, None)])
    assert_same_solution(lp.prepare_rhs(body),
                         LPSolution("optimal", np.array([0.5]), 0.5))
    body = lp.prepare_body([-1.0], bounds=[(0.5, None)])
    assert lp.prepare_rhs(body).status == "unbounded"


@pytest.mark.parametrize("bounds", [None, [(2.0, 1.0)]],
                         ids=["free", "crossed"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rhs_stage_rejects_non_finite_b_ub(bounds, bad):
    # The body is valid; only this right-hand side is not.  A crossed
    # bound decides the program, but its right-hand side is still read.
    body = lp.prepare_body([1.0], [[1.0], [-1.0]], bounds=bounds)
    with pytest.raises(ValueError, match="solve_lp: b_ub has a non-finite"):
        lp.prepare_rhs(body, [bad, 1.0])
    with pytest.raises(ValueError, match="solve_lp: b_eq has a non-finite"):
        lp.prepare_rhs(lp.prepare_body([1.0], a_eq=[[1.0]]), b_eq=[bad])


@pytest.mark.parametrize("bounds", [None, [(0.0, 1.0)]],
                         ids=["inequalities-only", "capped"])
def test_rhs_stage_rejects_b_ub_of_another_length(bounds):
    # A b_ub longer than a_ub is an error, not broadcast, on a body of
    # inequality rows only too; a one-entry b_ub is broadcast, as numpy
    # broadcasts it.
    body = lp.prepare_body([1.0], [[1.0], [-1.0]], bounds=bounds)
    with pytest.raises(ValueError):
        lp.prepare_rhs(body, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        lp.PathMemo(body).solve([1.0, 1.0, 1.0])
    assert_same_preparation(lp.prepare_rhs(body, [1.0]), one_stage_prepare_lp(
        [1.0], [[1.0], [-1.0]], [1.0], bounds=bounds))


# -- warm-started dual simplex ---------------------------------------------------
#
# ``warm_solve`` on chains of right-hand sides of one minimax body, each
# program started from the basis of the answer before it, or now and then
# from a random basis, which may be singular or not dual feasible.


def reference_warm(body, basis, b, budget):
    """``warm_solve``'s pivot rule with one loop per choice, on the same
    factorisation and ``_pivot``: the final basis, or ``"singular"``,
    ``"empty"`` or ``"budget"`` where it stops."""
    block, cost = body.block, body.cost2
    n = block.shape[1]
    basis = np.array(basis)
    try:
        t = np.linalg.solve(block[:, basis], np.column_stack([block, b]))
    except np.linalg.LinAlgError:
        return "singular"
    for pivots in range(budget + 1):
        low = [i for i in range(len(basis)) if t[i, n] < -lp._WARM_FEAS]
        if not low:
            return tuple(basis.tolist())
        if pivots == budget:
            return "budget"
        row = min(low, key=lambda i: basis[i])
        reduced = [cost[j] - sum(cost[basis[i]] * t[i, j] for i in range(len(basis)))
                   for j in range(n)]
        ratios = {j: max(reduced[j], 0.0) / -t[row, j] for j in range(n)
                  if t[row, j] < -lp._PIVOT_TOL}
        if not ratios:
            return "empty"
        least = min(ratios.values())
        lp._pivot(t, basis, row,
                  min(j for j, r in ratios.items() if r <= least + lp._TIE))
    raise AssertionError("unreachable")


def highs_value(c, a_ub, b):
    res = linprog(c, A_ub=a_ub, b_ub=b, bounds=[(None, None)] * len(c),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    return res.fun if res.status == 0 else None


@st.composite
def warm_chains(draw):
    """A minimax body in 1-4-D, as ``gqvi`` builds it from the vertices
    of T(x) and the unit rows of K(x), and 2-8 steps ``(b, start)``.
    Integer data make ratio ties; a repeated vertex makes two equal rows;
    an ``empty`` step crosses the first box pair, so K(x) is empty.
    ``start`` is None (the previous answer's basis) or a random basis."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())
    k = draw(st.integers(1, n + 3))
    vertices = (rng.integers(-2, 3, size=(k, n)).astype(float) if integer
                else rng.normal(size=(k, n)))
    if draw(st.booleans()):
        vertices = np.vstack([vertices, vertices[rng.integers(k)]])
    eye = np.eye(n)
    k_a = np.vstack([eye, -eye])
    extra = draw(st.integers(0, 0 if integer else 3))
    if extra:
        rows = rng.normal(size=(extra, n))
        k_a = np.vstack([k_a, rows / np.linalg.norm(rows, axis=1)[:, None]])
    c, a_ub = _minimax_rows(vertices, k_a)
    offsets = np.full(len(k_a), 2.0) if integer else rng.uniform(1.0, 2.0, len(k_a))
    steps = []
    for _ in range(draw(st.integers(2, 8))):
        if integer:
            x, k_b = rng.integers(-3, 4, n) / 2.0, offsets + rng.integers(-1, 2, len(k_a))
        else:
            x, k_b = rng.uniform(-1.5, 1.5, n), offsets + 0.5 * rng.normal(size=len(k_a))
        if draw(st.integers(0, 5)) == 0:
            k_b[0] = -k_b[n] - 0.5
        start = None
        if draw(st.integers(0, 4)) == 0:
            # At most one column of each free variable, but now and then
            # both of one, which makes the basis singular; slacks fill it.
            free = rng.permutation(n + 1)[:rng.integers(0, n + 2)]
            cols = [2 * j + int(rng.integers(2)) for j in free]
            if cols and rng.random() < 0.25:
                cols.append(cols[0] ^ 1)
            m = a_ub.shape[0]
            slacks = 2 * (n + 1) + rng.choice(m, m - len(cols), replace=False)
            start = tuple(rng.permutation(cols + slacks.tolist()).tolist())
        steps.append((np.concatenate([vertices @ x, k_b]), start))
    budget = draw(st.sampled_from([lp._WARM_PIVOTS] * 9 + [0, 1, 2]))
    return c, a_ub, steps, budget


def test_warm_solve_matches_cold_highs_and_its_rule():
    # Each warm answer has cold solve_lp's status, its objective within
    # 1e-9 (1 + |v|) of solve_lp's and of HiGHS's, rows that hold, and
    # the basis of the reference rule; every decline but the answer's
    # own check and degeneracy is the reference's, an infeasible program
    # is always declined, and its cold answer seeds the next step.
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(warm_chains())
    def check(case):
        c, a_ub, steps, budget = case
        body = lp.prepare_body(c, a_ub)
        basis = None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp, "_WARM_PIVOTS", budget)
            for b, start in steps:
                cold = solve_lp(c, a_ub=a_ub, b_ub=b)
                start = start or basis
                if start is None:
                    answer = cold
                else:
                    got = lp.warm_solve(body, start, b)
                    want = reference_warm(body, start, b, budget)
                    answer = cold if isinstance(got, str) else got
                    if isinstance(got, str):
                        seen[got] += 1
                        if got in ("check", "degenerate"):
                            assert isinstance(want, tuple)
                        else:
                            assert got == want
                    else:
                        seen["answered"] += 1
                        assert cold.optimal and got.basis == want
                        for value in (cold.value, highs_value(c, a_ub, b)):
                            assert abs(got.value - value) <= 1e-9 * (1 + abs(value))
                        assert (a_ub @ got.x <= b + 1e-9 * (1 + np.abs(b))).all()
                if answer.optimal:
                    basis = answer.basis

    check()
    assert set(seen) == {"answered", "check", "degenerate", "empty", "budget",
                         "singular"}
    assert seen["answered"] >= 200, seen


def _box_minimax(vertices, x):
    """``(body, c, a_ub, b)`` of the minimax LP at x of ``vertices`` over
    the box ``[-1, 1]^n``."""
    vertices = np.array(vertices, dtype=float)
    eye = np.eye(vertices.shape[1])
    c, a_ub = _minimax_rows(vertices, np.vstack([eye, -eye]))
    b = np.concatenate([vertices @ x, np.ones(2 * len(eye))])
    return lp.prepare_body(c, a_ub), c, a_ub, b


def test_warm_solve_keeps_an_optimal_basis_without_pivots(monkeypatch):
    # The minimax LP of the vertices (1, 1/2) and (-1, 1/2) over the box
    # has its optimum at (x1, -1): the basis at x = (0.2, 0) stays optimal
    # at (0.25, 0.1), so the warm answer takes no pivot.
    vertices = [[1.0, 0.5], [-1.0, 0.5]]
    body, c, a_ub, b = _box_minimax(vertices, [0.2, 0.0])
    cold = solve_lp(c, a_ub=a_ub, b_ub=b)
    pivots = []
    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot", lambda *args: pivots.append(1) or pivot(*args))
    b = _box_minimax(vertices, [0.25, 0.1])[3]
    got = lp.warm_solve(body, cold.basis, b)
    assert pivots == [] and got.basis == cold.basis
    assert np.abs(got.x - [0.25, -1.0, -0.55]).max() <= 1e-15
    want = solve_lp(c, a_ub=a_ub, b_ub=b)
    assert abs(got.value - want.value) <= 1e-15


@pytest.mark.parametrize("reason", ["singular", "empty", "budget", "check",
                                    "degenerate"])
def test_warm_solve_declines(reason, monkeypatch):
    # Each reason on the program of the test above, from its optimal
    # basis at x = (0.2, 0): a basis holding both columns of y1; crossed
    # box rows; no pivot allowed where y1 turns negative and one is
    # needed; a row slack below any answer; and a lone vertex (1, 0),
    # whose optimum is a whole edge of the box.
    vertices = [[1.0, 0.5], [-1.0, 0.5]]
    body, c, a_ub, b = _box_minimax(vertices, [0.2, 0.0])
    basis = solve_lp(c, a_ub=a_ub, b_ub=b).basis
    if reason == "singular":
        basis = (0, 1) + basis[2:]
    elif reason == "empty":
        b[2], b[4] = -1.0, -1.0  # y1 <= -1 and -y1 <= -1
    elif reason == "budget":
        monkeypatch.setattr(lp, "_WARM_PIVOTS", 0)
        b = _box_minimax(vertices, [-0.2, 0.0])[3]
    elif reason == "check":
        monkeypatch.setattr(lp, "_ROW_TOL", -1.0)
    else:
        body, c, a_ub, b = _box_minimax([[1.0, 0.0]], [0.2, 0.0])
        basis = solve_lp(c, a_ub=a_ub, b_ub=b).basis
    assert lp.warm_solve(body, basis, b) == reason
    if reason == "budget":
        monkeypatch.setattr(lp, "_WARM_PIVOTS", 1)
        assert lp.warm_solve(body, basis, b).optimal


def test_warm_solve_needs_rows_over_free_variables():
    for body in (lp.prepare_body([1.0], [[1.0]], bounds=[(0.0, None)]),
                 lp.prepare_body([1.0], a_eq=[[1.0]]),
                 lp.prepare_body([1.0])):
        with pytest.raises(ValueError, match="free variables"):
            lp.warm_solve(body, (0,), [1.0])

"""LP kernel tests: small hand programs, the array kernel against the
row-by-row reference it replaced, and scipy's HiGHS as an oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from adjcone import lp
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
    ended on (None when no phase ran)."""
    finals = []
    run_phase = lp._run_phase

    def recording(tableau, basis, cost, max_iter):
        try:
            return run_phase(tableau, basis, cost, max_iter)
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
    kind = draw(st.sampled_from(["random", "degenerate", "degenerate",
                                 "infeasible", "unbounded"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    m_ub = draw(st.integers(0, 6))
    m_eq = draw(st.integers(0, min(2, n)))
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

"""Dense linear programming kernel (two-phase primal simplex).

Self-contained solver for the desk-scale subproblems generated by the
geometric operations: feasibility checks, support functions, Chebyshev
centers, cone membership tests, and piecewise-linear minimax steps.
Bland's smallest-index rule is used for both the entering and the
leaving variable, which makes the iteration cycle-free.  Each pivot is
one masked rank-1 update of the tableau; every element goes through the
same multiply and subtract as a row-by-row update would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LPError", "LPSolution", "solve_lp"]

_COST_TOL = 1e-9
_PIVOT_TOL = 1e-10
_PHASE1_TOL = 1e-8


class LPError(RuntimeError):
    """The simplex iteration failed to terminate within its pivot budget."""


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau, basis, row, col):
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factors = tableau[:, col]
    mask = np.abs(factors) > 1e-14
    mask[row] = False
    np.subtract(tableau, factors[:, None] * pivot_row, out=tableau,
                where=mask[:, None])
    basis[row] = col


def _run_phase(tableau, basis, cost, max_iter):
    """Minimize cost over the current tableau; returns 'optimal'/'unbounded'."""
    n = tableau.shape[1] - 1
    for _ in range(max_iter):
        reduced = cost[:n] - cost[basis] @ tableau[:, :n]
        improving = reduced < -_COST_TOL
        entering = improving.argmax()  # Bland: the first improving column
        if not improving[entering]:
            return "optimal"
        col = tableau[:, entering]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        ratios = tableau[rows, n] / col[rows]
        # Bland's rule with a 1e-12 tie band: the first strictly smaller
        # ratio wins, a tie goes to the smaller basic index.
        leaving = -1
        best = math.inf
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best - 1e-12:
                best = ratio
                leaving = i
            elif (leaving >= 0 and abs(ratio - best) <= 1e-12
                  and basis[i] < basis[leaving]):
                leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)
    raise LPError("simplex pivot budget exhausted")


def _finite(name, arr):
    if not np.isfinite(arr).all():
        raise ValueError(f"solve_lp: {name} has a non-finite entry")


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None,
             max_iter=20000):
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub`` and ``a_eq @ x == b_eq``.

    Variables are free unless ``bounds`` gives a per-variable ``(lo, hi)``
    pair; either side may be ``None`` for unbounded.  Returns an
    :class:`LPSolution` whose status is one of ``optimal``, ``infeasible``
    or ``unbounded``.  Raises ``ValueError`` naming the argument when the
    data holds a NaN or an infinity.
    """
    c = np.asarray(c, dtype=float).ravel()
    _finite("c", c)
    n = c.size
    if a_ub is None:
        a_ub = np.zeros((0, n))
        b_ub = np.zeros(0)
    else:
        a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
        b_ub = np.asarray(b_ub, dtype=float).ravel()
        _finite("a_ub", a_ub)
        _finite("b_ub", b_ub)
    if a_eq is None:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    else:
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n)
        b_eq = np.asarray(b_eq, dtype=float).ravel()
        _finite("a_eq", a_eq)
        _finite("b_eq", b_eq)
    if bounds is None:
        bounds = [(None, None)] * n
    elif not all(math.isfinite(v) for pair in bounds for v in pair
                 if v is not None):
        raise ValueError("solve_lp: bounds has a non-finite entry")

    # Substitute every original variable by nonnegative ones:
    #   x_j = shift_j + sum(coef[k] * u_k for the columns k with var_of[k] == j).
    var_of = []
    coef = []
    shift = np.zeros(n)
    capped = []          # (column, hi - lo) for two-sided bounds
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
    var_of = np.array(var_of, dtype=int)
    coef = np.array(coef)

    n_ub = a_ub.shape[0] + len(capped)
    n_eq = a_eq.shape[0]
    m = n_ub + n_eq
    if m == 0:
        # No constraints: only bounded if the cost over u is nonnegative.
        if np.any(coef * c[var_of] < -_COST_TOL):
            return LPSolution("unbounded", None, None)
        return LPSolution("optimal", shift.copy(), float(c @ shift))

    # Columns: u variables, then slacks for the ub rows, then artificials.
    # Rows with a negative right-hand side are negated, so their slack
    # cannot start the basis; those rows and the equality rows get an
    # artificial column each.
    n_a = a_ub.shape[0]
    rhs = np.empty(m)
    rhs[:n_a] = b_ub - a_ub @ shift
    rhs[n_a:n_ub] = [width for _, width in capped]
    rhs[n_ub:] = b_eq - a_eq @ shift
    neg = rhs < 0
    n_struct = ncols + n_ub
    has_slack = ~neg
    has_slack[n_ub:] = False
    need_art = (~has_slack).nonzero()[0]
    n_art = need_art.size
    total = n_struct + n_art
    basis = np.arange(ncols, ncols + m)

    # Coefficients over u are added onto zeros, as a column-by-column
    # expansion of x into u would add them, so signed zeros agree.
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

    budget = max(max_iter, 50 * (m + total))
    if n_art:
        cost1 = np.zeros(total)
        cost1[n_struct:] = 1.0
        status = _run_phase(tableau, basis, cost1, budget)
        if status != "optimal":
            raise LPError("phase-1 simplex did not reach optimality")
        if cost1[basis] @ tableau[:, total] > _PHASE1_TOL:
            return LPSolution("infeasible", None, None)
        # Drive remaining artificial variables out of the basis.
        keep_rows = np.ones(m, dtype=bool)
        for i in (basis >= n_struct).nonzero()[0]:
            nonzero = (np.abs(tableau[i, :n_struct]) > 1e-9).nonzero()[0]
            if nonzero.size:
                _pivot(tableau, basis, i, nonzero[0])
            else:
                keep_rows[i] = False  # redundant row
        if not keep_rows.all():
            tableau = tableau[keep_rows]
            basis = basis[keep_rows]
        tableau = np.hstack([tableau[:, :n_struct], tableau[:, total:]])

    cost2 = np.zeros(n_struct)
    cost2[:ncols] += coef * c[var_of]
    status = _run_phase(tableau, basis, cost2, budget)
    if status == "unbounded":
        return LPSolution("unbounded", None, None)

    u = np.zeros(n_struct)
    u[basis] = tableau[:, -1]
    x = shift.copy()
    np.add.at(x, var_of, coef * u[:ncols])
    return LPSolution("optimal", x, float(c @ x))

"""Dense linear programming kernel (two-phase primal simplex).

Self-contained solver for the desk-scale subproblems generated by the
geometric operations: feasibility checks, support functions, Chebyshev
centers, cone membership tests, and piecewise-linear minimax steps.
Bland's smallest-index rule is used for both the entering and the
leaving variable, which makes the iteration cycle-free.  Each pivot is
one masked rank-1 update of the tableau; every element goes through the
same multiply and subtract as a row-by-row update would.

A tableau is built in two stages: ``prepare_body`` does all that does
not depend on the right-hand sides (validation, the substitution of
nonnegative variables, the coefficient and slack columns, the cost),
and ``prepare_rhs`` fills in one right-hand side (negated rows,
artificial columns).  ``solve_lp`` runs the same two stages, so a body
reused for many right-hand sides gives each the bits of its own
``solve_lp``.

``solve_lp_many`` solves many programs in lockstep, one simplex
iteration of every program per step.  Programs whose tableaux have the
same shape are stacked into one ``(k, m, n)`` array; each keeps its own
basis, entering column, ratio test and pivot, so every program ends with
the bits ``solve_lp`` gives it:

- both build the tableau with the same two stages;
- the stacked pricing product ``(k, 1, m) @ (k, m, n)`` makes the same
  BLAS ``gemv`` call per program, on the same strides, as the
  program's own ``cost[basis] @ tableau``;
- the ratios, the rank-1 update and the row scaling are elementwise;
- the leaving row is taken from the minimum ratios only when the tie
  scan provably picks it (``_stack_leaving``), and by the scan itself
  otherwise.

Stacks are never padded to a common shape: extra columns change the
bits of the BLAS product.  Stacks of fewer than ``_MIN_STACK`` programs
run the scalar loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LPError", "LPSolution", "prepare_body", "prepare_rhs", "prepare_lp",
           "solve_lp", "solve_lp_many"]

_COST_TOL = 1e-9
_PIVOT_TOL = 1e-10
_PHASE1_TOL = 1e-8
_TIE = 1e-12  # ratios this close tie; the smaller basic index leaves


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


@dataclass(eq=False)
class LPBody:
    """The part of a phase-1 tableau that ``b_ub`` and ``b_eq`` do not
    change.  ``solution`` is set, and the other fields are not, when the
    program is decided before any pivot (crossed bounds, no constraints)."""

    has_ub: bool  # a_ub was given, so b_ub is read
    has_eq: bool
    solution: LPSolution | None = None
    c: np.ndarray | None = None
    shift: np.ndarray | None = None
    var_of: np.ndarray | None = None
    coef: np.ndarray | None = None
    cost2: np.ndarray | None = None
    block: np.ndarray | None = None  # rows over u and slacks, none negated
    widths: list | None = None  # right-hand sides of the capped rows
    ub_shift: np.ndarray | None = None  # a_ub @ shift
    eq_shift: np.ndarray | None = None  # a_eq @ shift


@dataclass(eq=False)
class LPTableau:
    """A program between simplex phases: the tableau and basis of its
    current phase, and the body that maps the final basis back to ``x``.
    Phase 1 is pending while ``n_art`` is nonzero."""

    tableau: np.ndarray
    basis: np.ndarray
    n_struct: int
    n_art: int
    budget: int
    body: LPBody

    @property
    def cost(self):
        """Cost vector of the current phase."""
        if self.n_art:
            cost1 = np.zeros(self.n_struct + self.n_art)
            cost1[self.n_struct:] = 1.0
            return cost1
        return self.body.cost2


def _budget(rows, cols):
    """Pivot budget of each simplex phase of an ``rows x cols`` tableau."""
    return max(20000, 50 * (rows + cols))


def _pivot(tableau, basis, row, col):
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factors = tableau[:, col]
    mask = np.abs(factors) > 1e-14
    mask[row] = False
    np.subtract(tableau, factors[:, None] * pivot_row, out=tableau,
                where=mask[:, None])
    basis[row] = col


def _scan_leaving(rows, ratios, basis):
    """Bland's rule with a ``_TIE`` band over the candidate rows in order:
    the first strictly smaller ratio wins, a tie goes to the smaller basic
    index.  -1 when no ratio is finite."""
    leaving = -1
    best = math.inf
    for i, ratio in zip(rows, ratios):
        if ratio < best - _TIE:
            best = ratio
            leaving = i
        elif (leaving >= 0 and abs(ratio - best) <= _TIE
              and basis[i] < basis[leaving]):
            leaving = i
    return leaving


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
        leaving = _scan_leaving(rows.tolist(), ratios.tolist(), basis)
        if leaving < 0:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)
    raise LPError("simplex pivot budget exhausted")


def _finite(name, arr):
    if not np.isfinite(arr).all():
        raise ValueError(f"solve_lp: {name} has a non-finite entry")


def _matrix(name, a, n):
    a = np.asarray(a, dtype=float).reshape(-1, n)
    _finite(name, a)
    return a


def _vector(name, b):
    b = np.asarray(b, dtype=float).ravel()
    _finite(name, b)
    return b


def prepare_body(c, a_ub=None, a_eq=None, bounds=None):
    """The :class:`LPBody` of a program, for :func:`prepare_rhs` to
    complete with any number of right-hand sides.  Raises ``ValueError``
    naming the argument when the data holds a NaN or an infinity.
    """
    c = np.asarray(c, dtype=float).ravel()
    _finite("c", c)
    n = c.size
    body = LPBody(a_ub is not None, a_eq is not None)
    a_ub = np.zeros((0, n)) if a_ub is None else _matrix("a_ub", a_ub, n)
    a_eq = np.zeros((0, n)) if a_eq is None else _matrix("a_eq", a_eq, n)
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
                body.solution = LPSolution("infeasible", None, None)
                return body
            shift[j] = lo
            capped.append((len(var_of), hi - lo))
            coef.append(1.0)
        var_of.append(j)
    ncols = len(var_of)
    var_of = np.array(var_of, dtype=int)
    coef = np.array(coef)

    n_a = a_ub.shape[0]
    n_ub = n_a + len(capped)
    m = n_ub + a_eq.shape[0]
    if m == 0:
        # No constraints: only bounded if the cost over u is nonnegative.
        if np.any(coef * c[var_of] < -_COST_TOL):
            body.solution = LPSolution("unbounded", None, None)
        else:
            body.solution = LPSolution("optimal", shift.copy(), float(c @ shift))
        return body

    # Columns: u variables, then slacks for the ub rows.  Coefficients
    # over u are added onto zeros, as a column-by-column expansion of x
    # into u would add them, so signed zeros agree.
    n_struct = ncols + n_ub
    block = np.zeros((m, n_struct))
    block[:n_a, :ncols] += coef * a_ub[:, var_of]
    if capped:
        block[np.arange(n_a, n_ub), [col for col, _ in capped]] = 1.0
    if m > n_ub:
        block[n_ub:, :ncols] += coef * a_eq[:, var_of]
    block[np.arange(n_ub), np.arange(ncols, n_struct)] = 1.0

    cost2 = np.zeros(n_struct)
    cost2[:ncols] += coef * c[var_of]
    body.c, body.shift, body.var_of, body.coef, body.cost2 = (
        c, shift, var_of, coef, cost2)
    body.block, body.widths = block, [width for _, width in capped]
    body.ub_shift, body.eq_shift = a_ub @ shift, a_eq @ shift
    return body


def prepare_rhs(body, b_ub=None, b_eq=None):
    """What :func:`prepare_lp` returns for ``body`` with these
    right-hand sides.  ``b_ub`` (``b_eq``) is read only when the body
    was built with ``a_ub`` (``a_eq``), and rejected, naming it, when it
    holds a NaN or an infinity.
    """
    if body.has_ub:
        b_ub = _vector("b_ub", b_ub)
    if body.has_eq:
        b_eq = _vector("b_eq", b_eq)
    if body.solution is not None:
        return body.solution

    # Rows with a negative right-hand side are negated, so their slack
    # cannot start the basis; those rows and the equality rows get an
    # artificial column each, after the u and slack columns.
    m, n_struct = body.block.shape
    n_a = body.ub_shift.size
    n_ub = n_a + len(body.widths)
    rhs = np.empty(m)
    if body.has_ub:
        rhs[:n_a] = b_ub - body.ub_shift
    if body.widths:
        rhs[n_a:n_ub] = body.widths
    if m > n_ub:
        rhs[n_ub:] = b_eq - body.eq_shift
    neg = rhs < 0
    needs_art = neg
    if m > n_ub:
        needs_art = neg.copy()
        needs_art[n_ub:] = True
    ncols = body.var_of.size
    need_art = needs_art.nonzero()[0]
    n_art = need_art.size
    total = n_struct + n_art
    basis = np.arange(ncols, ncols + m)

    tableau = np.zeros((m, total + 1))
    tableau[:, :n_struct] = body.block
    if n_art:
        tableau[neg, :n_struct] *= -1.0
        art_cols = np.arange(n_struct, total)
        tableau[need_art, art_cols] = 1.0
        basis[need_art] = art_cols
    tableau[:, total] = np.abs(rhs)
    return LPTableau(tableau, basis, n_struct, n_art, _budget(m, total), body)


def prepare_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    """Validate a program and build its phase-1 tableau.

    Takes the arguments of :func:`solve_lp`; :func:`prepare_body`, then
    :func:`prepare_rhs`.  Returns the
    :class:`LPSolution` of a program decided before any pivot (crossed
    bounds, no constraints), else an :class:`LPTableau` for
    :func:`solve_lp_many`.  Raises ``ValueError`` naming the argument
    when the data holds a NaN or an infinity.
    """
    return prepare_rhs(prepare_body(c, a_ub, a_eq, bounds), b_ub, b_eq)


def _end_phase1(prog, status):
    """Turn an ended phase 1 into the phase-2 tableau; the infeasible
    solution when the artificials cannot all reach zero."""
    if status != "optimal":
        raise LPError("phase-1 simplex did not reach optimality")
    tableau, basis, n_struct = prog.tableau, prog.basis, prog.n_struct
    total = n_struct + prog.n_art
    # The phase-1 cost of a basic variable is 1.0 on an artificial, else 0.0.
    artificial = basis >= n_struct
    if artificial.astype(float) @ tableau[:, total] > _PHASE1_TOL:
        return LPSolution("infeasible", None, None)
    # Drive remaining artificial variables out of the basis.
    redundant = []
    for i in artificial.nonzero()[0]:
        nonzero = (np.abs(tableau[i, :n_struct]) > 1e-9).nonzero()[0]
        if nonzero.size:
            _pivot(tableau, basis, i, nonzero[0])
        else:
            redundant.append(i)
    if redundant:
        keep_rows = np.ones(tableau.shape[0], dtype=bool)
        keep_rows[redundant] = False
        tableau = tableau[keep_rows]
        basis = basis[keep_rows]
    prog.tableau = np.concatenate([tableau[:, :n_struct], tableau[:, total:]],
                                  axis=1)
    prog.basis = basis
    prog.n_art = 0
    return None


def _solution(prog, status):
    if status == "unbounded":
        return LPSolution("unbounded", None, None)
    body = prog.body
    u = np.zeros(prog.n_struct)
    u[prog.basis] = prog.tableau[:, -1]
    x = body.shift.copy()
    np.add.at(x, body.var_of, body.coef * u[:body.var_of.size])
    return LPSolution("optimal", x, float(body.c @ x))


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub`` and ``a_eq @ x == b_eq``.

    Variables are free unless ``bounds`` gives a per-variable ``(lo, hi)``
    pair; either side may be ``None`` for unbounded.  Returns an
    :class:`LPSolution` whose status is one of ``optimal``, ``infeasible``
    or ``unbounded``.  Raises ``ValueError`` naming the argument when the
    data holds a NaN or an infinity.
    """
    prog = prepare_lp(c, a_ub, b_ub, a_eq, b_eq, bounds)
    if isinstance(prog, LPSolution):
        return prog
    if prog.n_art:
        status = _run_phase(prog.tableau, prog.basis, prog.cost, prog.budget)
        infeasible = _end_phase1(prog, status)
        if infeasible is not None:
            return infeasible
    status = _run_phase(prog.tableau, prog.basis, prog.cost, prog.budget)
    return _solution(prog, status)


# -- lockstep kernel -----------------------------------------------------------


# Stacks of fewer programs run the scalar loop: a stacked iteration costs
# about as much as three scalar ones.
_MIN_STACK = 3


def _pivot_many(tableau, basis, index, rows, cols, factors):
    """``_pivot`` of every stacked tableau on its own (row, col);
    ``index`` is ``arange`` over the stack and ``factors`` the pivot
    columns, ``tableau[index, :, cols]``."""
    pivot_rows = tableau[index, rows]
    pivot_rows /= factors[index, rows][:, None]
    tableau[index, rows] = pivot_rows
    # The pivot row's own factor is stale here, but that row is masked.
    mask = np.abs(factors) > 1e-14
    mask[index, rows] = False
    np.subtract(tableau, factors[:, :, None] * pivot_rows[:, None, :],
                out=tableau, where=mask[:, :, None])
    basis[index, rows] = cols


def _stack_leaving(col, rhs, basis):
    """``_scan_leaving`` of every lane: the leaving row per lane, -1 when
    the lane has no candidate row.

    Let r* be a lane's smallest ratio and r2 the next in sorted order.
    If ``r* < r2 - _TIE`` and ``r2 - r* > _TIE``, r* is attained by one
    row, and every other ratio r passes both tests as r2 does, since
    rounding is monotone.  The scan then takes that row against any
    earlier best and keeps it against every later row: it picks the
    row of the smallest ratio.  A lane without candidate rows gets -1,
    as from the scan.  Every other lane runs the scan.
    """
    candidate = col > _PIVOT_TOL
    ratios = np.divide(rhs, col, out=np.full(col.shape, np.inf),
                       where=candidate)
    leaving = ratios.argmin(axis=1)
    if ratios.shape[1] > 1:
        smallest = np.partition(ratios, 1, axis=1)
        best, runner_up = smallest[:, 0], smallest[:, 1]
    else:
        best, runner_up = ratios[:, 0], math.inf
    clear = (best < runner_up - _TIE) & (runner_up - best > _TIE)
    none = ~candidate.any(axis=1)
    leaving[none] = -1
    for lane in (~(clear | none)).nonzero()[0].tolist():
        rows = candidate[lane].nonzero()[0]
        leaving[lane] = _scan_leaving(rows.tolist(),
                                      ratios[lane, rows].tolist(),
                                      basis[lane])
    return leaving


def _run_stack(progs):
    """Lockstep ``_run_phase`` of programs whose tableaux share one shape;
    their statuses in order.  Each program's tableau and basis are left
    as its own ``_run_phase`` would leave them."""
    status = [None] * len(progs)
    if len(progs) < _MIN_STACK:
        for i, prog in enumerate(progs):
            status[i] = _run_phase(prog.tableau, prog.basis, prog.cost,
                                   prog.budget)
        return status
    tableau = np.stack([prog.tableau for prog in progs])
    basis = np.stack([prog.basis for prog in progs])
    cost = np.stack([prog.cost for prog in progs])
    budget = np.array([prog.budget for prog in progs])
    lanes = np.arange(len(progs))
    index, limit = lanes, budget.min()
    n = tableau.shape[2] - 1
    steps = 0
    with np.errstate(invalid="ignore"):
        while True:
            if lanes.size < _MIN_STACK:
                for row, lane in enumerate(lanes.tolist()):
                    prog = progs[lane]
                    prog.tableau, prog.basis = tableau[row], basis[row]
                    status[lane] = _run_phase(tableau[row], basis[row],
                                              cost[row], budget[row] - steps)
                return status
            if steps >= limit:
                raise LPError("simplex pivot budget exhausted")
            priced = cost[index[:, None], basis][:, None, :]
            reduced = cost - (priced @ tableau[:, :, :n])[:, 0]
            improving = reduced < -_COST_TOL
            entering = improving.argmax(axis=1)
            optimal = ~improving[index, entering]
            col = tableau[index, :, entering]
            col[optimal] = 0.0  # no candidate rows: the lane stops here
            leaving = _stack_leaving(col, tableau[:, :, n], basis)
            going = leaving >= 0
            if not going.all():
                for row in (~going).nonzero()[0].tolist():
                    prog = progs[lanes[row]]
                    prog.tableau, prog.basis = tableau[row], basis[row]
                    status[lanes[row]] = ("optimal" if optimal[row]
                                          else "unbounded")
                tableau, basis, cost, budget, lanes, entering, leaving, col = (
                    arr[going] for arr in (tableau, basis, cost, budget, lanes,
                                           entering, leaving, col))
                index = np.arange(lanes.size)
                if lanes.size < _MIN_STACK:
                    continue
                limit = budget.min()
            _pivot_many(tableau, basis, index, leaving, entering, col)
            steps += 1


def _run_phase_many(progs):
    """The current phase of every program, one stack per tableau shape;
    their statuses in order."""
    stacks = {}
    for i, prog in enumerate(progs):
        stacks.setdefault(prog.tableau.shape, []).append(i)
    status = [None] * len(progs)
    for members in stacks.values():
        for i, result in zip(members, _run_stack([progs[i] for i in members])):
            status[i] = result
    return status


def solve_lp_many(programs):
    """Solve many prepared programs in lockstep.

    ``programs`` holds what :func:`prepare_lp` (or :func:`prepare_rhs`)
    returned for each program.
    Returns their :class:`LPSolution` objects in order, each bit for bit
    the one :func:`solve_lp` returns for the same arguments; the
    tableaux are consumed.  Phase 1 stacks programs by artificial-column
    count; a program that drops redundant rows after phase 1 joins the
    phase-2 stack of its new shape.  Raises :class:`LPError` when any
    program exhausts its pivot budget.
    """
    out = [prog if isinstance(prog, LPSolution) else None for prog in programs]
    pending = [i for i, sol in enumerate(out) if sol is None]
    phase1 = [i for i in pending if programs[i].n_art]
    for i, status in zip(phase1, _run_phase_many([programs[i] for i in phase1])):
        out[i] = _end_phase1(programs[i], status)
    pending = [i for i in pending if out[i] is None]
    for i, status in zip(pending, _run_phase_many([programs[i] for i in pending])):
        out[i] = _solution(programs[i], status)
    return out

"""Dense linear programming kernel (two-phase primal simplex, and a
warm-started dual simplex).

Self-contained solver for the desk-scale subproblems generated by the
geometric operations: feasibility checks, support functions, Chebyshev
centers, cone membership tests, and piecewise-linear minimax steps.
Bland's smallest-index rule is used for both the entering and the
leaving variable, which makes the iteration cycle-free.  Each pivot is
one masked rank-1 update of the tableau; every element goes through the
same multiply and subtract as a row-by-row update would.

``prepare_body`` builds what does not depend on the right-hand sides
and ``prepare_rhs`` fills in one; ``solve_lp`` runs the same two
stages, so a body reused for many right-hand sides gives each the bits
of its own ``solve_lp``.

``PathMemo`` solves many programs of one body.  Under Bland's rule
every simplex choice but the leaving row depends only on the tableau's
body columns, never on its right-hand-side column: the entering column,
its candidate rows, and each pivot's update of the body columns.  So a
program that retraces a recorded path, with the same negated rows, is
replayed on its right-hand-side column alone, with the operations of
``solve_lp``: ``_scan_leaving`` on the same quotients; per pivot,
``r_l / p`` and then ``r_i - f_i * r_l`` on the rows ``_pivot`` updates,
each one IEEE binary64 operation that rounds once, in CPython floats as
in numpy; the phase-1 dot product on a column with the tableau's
strides; and the shared ``_solution``.  A program that leaves the
recorded paths is solved from scratch, and its path is recorded with the
candidate rows and entries its ratio tests built.

``solve_lp`` keeps one bounded cache of bodies, so no caller has to
manage a memo.  The key is the exact body: the shape and bytes of ``c``,
``a_ub`` and ``a_eq`` (None and an empty matrix differ) and the float
bits of ``bounds``; keys compare bytes, not values, so ``0.0`` and
``-0.0`` differ and every result keeps its bits.  The first program of a
body is solved from scratch and only marks the body as seen; from its
second program on, a body is solved through its ``PathMemo``.  The cache
holds at most ``_CACHE_BODIES`` bodies and drops the oldest past that;
each memo records at most ``_MEMO_NODES`` states.  ``cache_counts``
counts the ``calls``, the programs ``replayed`` and ``solved`` from
scratch, and the ``nodes`` recorded; ``clear_cache`` empties both.  The
command line clears the cache when a command starts, so no command's
work depends on an earlier one.

``warm_solve`` answers a program from the final basis of an earlier
program of the same body by the dual simplex: a new right-hand side
leaves that basis dual feasible, so a few pivots, often none, restore
primal feasibility.  It serves the minimax LPs of ``gqvi.solve``, whose
body stays fixed while x moves the right-hand side.  Its answers take
another path than ``solve_lp`` and differ from its bits, so the
bit-for-bit contract above covers ``solve_lp`` alone: the other LP
families (Chebyshev anchors, boxes, certificates, cone membership) stay
on it, because their bits reach reports.  A warm answer is checked
before it is returned; where it declines, the caller solves cold.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = ["LPError", "LPSolution", "PathMemo", "cache_counts", "clear_cache",
           "prepare_body", "prepare_rhs", "solve_lp", "warm_solve"]

_COST_TOL = 1e-9
_PIVOT_TOL = 1e-10
_PHASE1_TOL = 1e-8
_TIE = 1e-12  # ratios this close tie; the smaller basic index leaves


class LPError(RuntimeError):
    """The simplex iteration failed to terminate within its pivot budget."""


@dataclass
class LPSolution:
    """The outcome of a program.  An optimal solution carries ``basis``,
    its final basis: the basic columns, row by row, of the phase-2
    tableau, whose columns are those of the variables (two per free
    variable, one per bounded one, in variable order) and then one slack
    per ``a_ub`` row and per two-sided bound.  A solution decided before
    any pivot has no basis."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None
    basis: tuple | None = None

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
    terms: list | None = None  # (var_of[k], coef[k]) of every u column k
    cost2: np.ndarray | None = None
    block: np.ndarray | None = None  # rows over u and slacks, none negated
    widths: list | None = None  # right-hand sides of the capped rows
    ub_shift: np.ndarray | None = None  # a_ub @ shift
    eq_shift: np.ndarray | None = None  # a_eq @ shift
    a_ub: np.ndarray | None = None  # the rows, for warm_solve's check


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


def _scan_leaving(rows, den, rhs, basis):
    """Bland's rule with a ``_TIE`` band over the ratios ``rhs[i] / d``
    of the candidate rows ``i`` and their entering-column entries ``d``,
    in order: the first strictly smaller ratio wins, a tie goes to the
    smaller basic index.  -1 when no ratio is finite."""
    leaving = -1
    best = bar = math.inf  # bar is best - _TIE
    for i, d in zip(rows, den):
        ratio = rhs[i] / d
        if ratio < bar:
            best, bar, leaving = ratio, ratio - _TIE, i
        # |ratio - best| <= _TIE; best - ratio is -(ratio - best) exactly.
        elif (ratio - best <= _TIE and best - ratio <= _TIE and leaving >= 0
              and basis[i] < basis[leaving]):
            leaving = i
    return leaving


def _run_phase(tableau, basis, cost, max_iter, path=None):
    """Minimize cost over the current tableau; returns 'optimal'/'unbounded'.
    ``path`` collects every state met: ``(basis list, candidate rows,
    their entering-column entries, entering column, leaving row)``, or
    ``(basis list, None, None)`` where the phase is optimal."""
    n = tableau.shape[1] - 1
    for _ in range(max_iter):
        reduced = cost[:n] - cost[basis] @ tableau[:, :n]
        improving = reduced < -_COST_TOL
        entering = improving.argmax()  # Bland: the first improving column
        if not improving[entering]:
            if path is not None:
                path.append((basis.tolist(), None, None))
            return "optimal"
        col = tableau[:, entering]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        rows, den = rows.tolist(), col[rows].tolist()
        leaving = _scan_leaving(rows, den, tableau[:, n].tolist(), basis)
        if path is not None:
            path.append((basis.tolist(), rows, den, col.copy(), leaving))
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


def _bound(v):
    return v if v is None else float(v)


def prepare_body(c, a_ub=None, a_eq=None, bounds=None):
    """The :class:`LPBody` of a program, for :func:`prepare_rhs` to
    complete with any number of right-hand sides.  Raises ``ValueError``
    naming the argument when the data holds a NaN or an infinity.
    """
    c = np.array(c, dtype=float).ravel()  # a copy: the body outlives the call
    _finite("c", c)
    n = c.size
    body = LPBody(a_ub is not None, a_eq is not None)
    a_ub = np.zeros((0, n)) if a_ub is None else _matrix("a_ub", a_ub, n)
    a_eq = np.zeros((0, n)) if a_eq is None else _matrix("a_eq", a_eq, n)
    if bounds is None:
        bounds = [(None, None)] * n
    else:
        bounds = [(_bound(lo), _bound(hi)) for lo, hi in bounds]
        if not all(math.isfinite(v) for pair in bounds for v in pair
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
    body.terms = list(zip(var_of.tolist(), coef.tolist()))
    body.block, body.widths = block, [width for _, width in capped]
    body.ub_shift, body.eq_shift = a_ub @ shift, a_eq @ shift
    body.a_ub = a_ub
    return body


def prepare_rhs(body, b_ub=None, b_eq=None):
    """The phase-1 :class:`LPTableau` of ``body`` with these right-hand
    sides, or the :class:`LPSolution` of a program decided before any
    pivot (crossed bounds, no constraints).  ``b_ub`` (``b_eq``) is read
    only when the body was built with ``a_ub`` (``a_eq``), and rejected,
    naming it, when it holds a NaN or an infinity.
    """
    rhs = _rhs(body, b_ub, b_eq)
    if isinstance(rhs, LPSolution):
        return rhs
    return _tableau(body, rhs)


def _tableau(body, rhs):
    """The phase-1 :class:`LPTableau` of ``body`` with ``rhs``, the
    right-hand side of every row (``_rhs``)."""
    # Rows with a negative right-hand side are negated, so their slack
    # cannot start the basis; those rows and the equality rows get an
    # artificial column each, after the u and slack columns.
    m, n_struct = body.block.shape
    neg = rhs < 0
    needs_art = neg
    if body.eq_shift.size:
        needs_art = neg.copy()
        needs_art[m - body.eq_shift.size:] = True
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


def _rhs(body, b_ub, b_eq):
    """The right-hand side of every row of the body, or a copy of its
    decided solution."""
    if body.has_ub:
        b_ub = _vector("b_ub", b_ub)
    if body.has_eq:
        b_eq = _vector("b_eq", b_eq)
    if body.solution is not None:
        sol = body.solution
        return LPSolution(sol.status, None if sol.x is None else sol.x.copy(),
                          sol.value)
    m = body.block.shape[0]
    n_a = body.ub_shift.size
    if m == n_a:  # inequality rows only; out= rejects another length
        return np.subtract(b_ub, body.ub_shift, out=np.empty(m))
    n_ub = n_a + len(body.widths)
    rhs = np.empty(m)
    if body.has_ub:
        rhs[:n_a] = b_ub - body.ub_shift
    if body.widths:
        rhs[n_a:n_ub] = body.widths
    if m > n_ub:
        rhs[n_ub:] = b_eq - body.eq_shift
    return rhs


def _end_phase1(prog, status, drives=None):
    """Turn an ended phase 1 into the phase-2 tableau; the infeasible
    solution when the artificials cannot all reach zero.  ``drives``
    collects ``(row, pivot column)`` of every artificial driven out, and
    ``(row, None)`` of every redundant row dropped."""
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
        if drives is not None:
            drives.append((i, tableau[:, nonzero[0]].copy() if nonzero.size else None))
        if nonzero.size:
            _pivot(tableau, basis, i, nonzero[0])
        else:
            redundant.append(i)
    if redundant:
        tableau, basis = np.delete(tableau, redundant, 0), np.delete(basis, redundant)
    prog.tableau = np.concatenate([tableau[:, :n_struct], tableau[:, total:]],
                                  axis=1)
    prog.basis = basis
    prog.n_art = 0
    return None


def _solution(body, basis, rhs):
    """The optimal solution of a final basis and its right-hand side
    (lists), summed term by term in ``np.add.at``'s order."""
    u = dict(zip(basis, rhs))
    x = body.shift.tolist()
    for k, (j, coef) in enumerate(body.terms):
        x[j] += coef * u.get(k, 0.0)
    x = np.array(x)
    return LPSolution("optimal", x, float(body.c @ x), tuple(basis))


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub`` and ``a_eq @ x == b_eq``.

    Variables are free unless ``bounds`` gives a per-variable ``(lo, hi)``
    pair; either side may be ``None`` for unbounded.  Returns an
    :class:`LPSolution` whose status is one of ``optimal``, ``infeasible``
    or ``unbounded``.  Raises ``ValueError`` naming the argument when the
    data holds a NaN or an infinity.  Bodies are cached (module
    docstring); the result is bit for bit that of a solve from scratch.
    """
    _counts["calls"] += 1
    c = np.asarray(c, dtype=float)
    a_ub = None if a_ub is None else np.asarray(a_ub, dtype=float)
    a_eq = None if a_eq is None else np.asarray(a_eq, dtype=float)
    key = (_bytes(c), _bytes(a_ub), _bytes(a_eq),
           None if bounds is None else _bounds_key(bounds))
    entry = _bodies.get(key)
    if entry is None:
        body = prepare_body(c, a_ub, a_eq, bounds)
        if len(_bodies) >= _CACHE_BODIES:
            del _bodies[next(iter(_bodies))]
        _bodies[key] = body
        prog = prepare_rhs(body, b_ub, b_eq)
        sol = prog if isinstance(prog, LPSolution) else _simplex(prog)
        _counts["solved"] += 1
        return sol
    if isinstance(entry, LPBody):
        entry = _bodies[key] = PathMemo(entry, _counts)
    return entry.solve(b_ub, b_eq)


def _simplex(prog, path1=None, drives=None, path2=None):
    """Both phases of a prepared tableau; the paths are ``_run_phase``'s
    and ``drives`` is ``_end_phase1``'s."""
    if prog.n_art:
        status = _run_phase(prog.tableau, prog.basis, prog.cost, prog.budget,
                            path1)
        infeasible = _end_phase1(prog, status, drives)
        if infeasible is not None:
            return infeasible
    if _run_phase(prog.tableau, prog.basis, prog.cost, prog.budget,
                  path2) == "unbounded":
        return LPSolution("unbounded", None, None)
    return _solution(prog.body, prog.basis.tolist(), prog.tableau[:, -1].tolist())


# -- body cache ----------------------------------------------------------------


# Bodies the cache holds at most; a new body past the cap drops the oldest.
_CACHE_BODIES = 64

_bodies = {}  # body key -> its LPBody once seen, its PathMemo from then on
_counts = Counter()


def _bytes(a):
    return None if a is None else (a.shape, a.tobytes())


def _bounds_key(bounds):
    """The float bits of every bound, pair by pair; None stays None."""
    key = []
    for lo, hi in bounds:
        key += (lo if lo is None else float(lo).hex(),
                hi if hi is None else float(hi).hex())
    return tuple(key)


def clear_cache():
    """Empty the body cache and zero its counts."""
    _bodies.clear()
    _counts.clear()


def cache_counts():
    """The cache's counts since it was last cleared: ``solve_lp`` calls,
    programs replayed and solved from scratch, and memo states recorded.
    A call that raised is counted only in ``calls``."""
    return {name: _counts[name] for name in ("calls", "replayed", "solved",
                                             "nodes")}


# -- pivot-path memo -----------------------------------------------------------


# States one memo records at most; past the cap, misses are not recorded.
_MEMO_NODES = 4096


class _Node:
    """A recorded tableau state: its basis (``order``), the candidate rows
    of its entering column and their entries (None where the phase
    ends), and ``edges`` from a leaving row to ``(row, pivot, updated
    rows, their factors, next state)``.  Once a feasible program got
    there, the last state of phase 1 holds ``end``: ``(artificial mask,
    tableau width, drive-out updates, rows kept, first phase-2 state)``."""

    __slots__ = ("order", "rows", "den", "edges", "end")

    def __init__(self, memo, order, rows, den):
        memo.nodes += 1
        memo.counts["nodes"] += 1
        self.order, self.rows, self.den, self.edges, self.end = (
            order, rows, den, {}, None)


def _edge(col, row):
    """``(row, pivot, updated rows, their factors)`` of a ``_pivot`` on
    ``row`` of the entering column ``col``."""
    mask = np.abs(col) > 1e-14
    mask[row] = False
    rows = mask.nonzero()[0]
    return row, float(col[row]), rows.tolist(), col[rows].tolist()


def _update(rhs, row, pivot, rows, factors):
    """What ``_pivot`` does to the right-hand-side column, on a list."""
    value = rhs[row] = rhs[row] / pivot
    for i, factor in zip(rows, factors):
        rhs[i] -= factor * value


def _walk(node, rhs):
    """Take ``rhs`` down the recorded pivots from ``node``; ``(node,
    row)`` where it stops.  The row is -1 where the phase ends or the
    program is unbounded, else a leaving row no recorded program took."""
    while node.rows is not None:
        leaving = _scan_leaving(node.rows, node.den, rhs, node.order)
        edge = node.edges.get(leaving)
        if edge is None:
            return node, leaving
        row, pivot, rows, factors, node = edge
        value = rhs[row] = rhs[row] / pivot  # _update, inlined
        for i, factor in zip(rows, factors):
            rhs[i] -= factor * value
    return node, -1


class PathMemo:
    """Solves programs of one :class:`LPBody`, replaying recorded paths.

    ``solve(b_ub, b_eq)`` returns what :func:`solve_lp` returns for the
    body with these right-hand sides, bit for bit (module docstring).
    Paths are recorded in one trie per pattern of negated rows, at most
    ``_MEMO_NODES`` states.  ``counts``, shared when given, counts the
    programs ``replayed`` and ``solved`` from scratch and the ``nodes``.
    """

    def __init__(self, body, counts=None):
        self.body, self.nodes, self.roots = body, 0, {}
        self.counts = Counter() if counts is None else counts

    def solve(self, b_ub=None, b_eq=None):
        rhs = _rhs(self.body, b_ub, b_eq)
        if isinstance(rhs, LPSolution):
            self.counts["solved"] += 1
            return rhs
        key = (rhs < 0).tobytes()
        if key in self.roots:
            sol = self._replay(*self.roots[key], np.abs(rhs).tolist())
            if sol is not None:
                self.counts["replayed"] += 1
                return sol
        prog = _tableau(self.body, rhs)
        width = prog.tableau.shape[1]
        path1, drives, path2 = [], [], []
        sol = _simplex(prog, path1, drives, path2)
        self.counts["solved"] += 1
        # Each state met is at most one new node.
        if self.nodes + len(path1) + len(path2) <= _MEMO_NODES:
            if key not in self.roots:
                self.roots[key] = _Node(self, *(path1 or path2)[0][:3]), bool(path1)
            self._record(*self.roots[key], path1, width, drives, path2)
        return sol

    def _replay(self, node, phase1, rhs):
        """The solution along the recorded paths; None where it leaves them."""
        node, leaving = _walk(node, rhs)
        if phase1:
            # Off the paths (no state inside the phase has an end), or at
            # a phase-1 end that only infeasible programs met.
            if node.end is None:
                return None
            art, width, drives, keep, root = node.end
            col = np.empty((len(rhs), width))[:, -1]  # the tableau's strides
            col[:] = rhs
            if art @ col > _PHASE1_TOL:
                return LPSolution("infeasible", None, None)
            for edge in drives:
                _update(rhs, *edge)
            rhs = [rhs[i] for i in keep]
            node, leaving = _walk(root, rhs)
        if leaving >= 0:
            return None
        if node.rows is not None:
            return LPSolution("unbounded", None, None)
        return _solution(self.body, node.order, rhs)

    def _graft(self, node, path):
        """Record ``path`` from its first state, ``node``; its last state."""
        for (*_, col, leaving), state in zip(path, path[1:]):
            if leaving not in node.edges:
                node.edges[leaving] = (*_edge(col, leaving),
                                       _Node(self, *state[:3]))
            node = node.edges[leaving][-1]
        return node

    def _record(self, node, phase1, path1, width, drives, path2):
        """Record the priced paths of a program from ``node``, their first state."""
        if phase1:
            node = self._graft(node, path1)
            if not path2:  # phase 1 ended infeasible
                return
            if node.end is None:
                dropped = [row for row, col in drives if col is None]
                node.end = (
                    (np.array(node.order) >= self.body.block.shape[1])
                    .astype(float), width,
                    [_edge(col, row) for row, col in drives if col is not None],
                    [i for i in range(len(node.order)) if i not in dropped],
                    _Node(self, *path2[0][:3]))
            node = node.end[4]
        self._graft(node, path2)


# -- warm-started dual simplex ---------------------------------------------------


# Dual simplex pivots one warm answer may take; past them it declines.
_WARM_PIVOTS = 50
# A basic value below -_WARM_FEAS is infeasible and leaves the basis.
_WARM_FEAS = 1e-12
# A warm answer's rows hold within _ROW_TOL * (1 + |b|).
_ROW_TOL = 1e-9


def warm_solve(body, basis, b_ub):
    """The optimal solution of ``body`` with right-hand side ``b_ub``, by
    the dual simplex from ``basis``, the final basis of an optimal
    program of the same body (Bixby, *Oper. Res.* 50(1), 2002); or why
    it declines, as a string: ``"singular"`` (the basis matrix is not
    invertible), ``"empty"`` (an empty ratio test: the program is
    infeasible), ``"budget"`` (more than ``_WARM_PIVOTS`` pivots),
    ``"check"`` (the answer fails its check), or ``"degenerate"`` (a
    reduced cost of 0 that may open a face of optima).

    The body must hold ``a_ub`` rows over free variables only, as the
    minimax LP of ``gqvi`` does.  The tableau is factorised afresh from
    ``basis``.  Pivots follow a Bland-type rule: the infeasible row of
    the smallest basic index leaves, and the entering column has the
    smallest ratio of reduced cost to entry, ties within ``_TIE`` going
    to the smaller index.  Every answer is checked: each row of ``a_ub``
    holds within ``_ROW_TOL * (1 + |b|)`` and every reduced cost is at
    least ``-_COST_TOL``, so the answer is optimal up to those slacks.
    Its bits are not those of :func:`solve_lp`, which takes another path.
    """
    if body.has_eq or body.var_of is None or body.var_of.size != 2 * body.c.size:
        raise ValueError("warm_solve: the body must hold a_ub rows over "
                         "free variables")
    rhs = _rhs(body, b_ub, None)  # b_ub itself: every shift is 0
    block, cost = body.block, body.cost2
    n = block.shape[1]
    basis = np.array(basis)
    try:
        tableau = np.linalg.solve(block[:, basis], np.column_stack([block, rhs]))
    except np.linalg.LinAlgError:  # exactly singular, or not square
        return "singular"
    for pivots in range(_WARM_PIVOTS + 1):
        reduced = cost - cost[basis] @ tableau[:, :n]
        low = (tableau[:, n] < -_WARM_FEAS).nonzero()[0]
        if not low.size:
            break
        if pivots == _WARM_PIVOTS:
            return "budget"
        row = low[basis[low].argmin()]
        entries = tableau[row, :n]
        cols = (entries < -_PIVOT_TOL).nonzero()[0]
        if not cols.size:
            return "empty"
        ratios = np.maximum(reduced[cols], 0.0) / -entries[cols]
        _pivot(tableau, basis, row, cols[(ratios <= ratios.min() + _TIE).argmax()])
    sol = _solution(body, basis.tolist(), tableau[:, n].tolist())
    if (reduced.min() < -_COST_TOL
            or not (body.a_ub @ sol.x - rhs
                    <= _ROW_TOL * (1.0 + np.abs(rhs))).all()):
        return "check"
    # Columns 2j and 2j + 1 carry +x_j and -x_j, so the partner of a basic
    # one always has reduced cost 0.  Any other nonbasic 0 may open a
    # face of optima, where solve_lp's path, not this one, must choose.
    other = np.ones(n, dtype=bool)
    other[basis] = False
    other[basis[basis < body.var_of.size] ^ 1] = False
    if (reduced[other] <= _COST_TOL).any():
        return "degenerate"
    return sol

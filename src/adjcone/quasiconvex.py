"""Quasiconvex function representations with exact sublevel machinery.

The primary representation is :class:`StepLevelFunction`: a nested family
of polytopes with strictly increasing level values.  Its sublevel and
strict sublevel sets are closed polytopes, so the adjustment radius and
the adjusted sublevel set are exactly computable.  Analytic functions
are kept for sampling-based checks.

A loaded family is certified at once (``StepLevelFunction.from_uncertified``):
where every row of each level also bounds the level below it, no
looser, the levels nest exactly, so the innermost level's feasibility
and the domain's boundedness certificate hold for every level.  The
same row test settles nestedness before the vertex test is tried.

Membership operations (``evaluate``, ``rho``, ``adjusted_contains``)
evaluate the function as the family actually defines it, i.e. over the
union of the level polytopes.  For a valid nested family this coincides
with the single-polytope realizations returned by ``sublevel`` and
``strict_sublevel``; for deliberately corrupted non-nested families the
union semantics is what lets the diagnostic checks detect the damage.

The batch kernels ``evaluate_many`` and ``AdjustedAnchor.contains_many``
answer an array of points with one ``contains_many``/``within_distance``
call per level.  On exact axis boxes ``contains_many`` works one
coordinate column at a time, and so does ``within_distance`` on boxes
from 2-D on, with the booleans of the matrix product and of ``np.clip``
with ``np.linalg.norm`` (see :mod:`adjcone.geometry`).  The anchor
selects the rows it passes on with ``compress``, the same copy as
boolean indexing.  It is the one home of the adjusted membership rule:
``adjusted_contains``, the ``adjusted-set`` mesh and the sampled
checks all go through it.

Membership only compares a distance with ``rho(x) + tol``, which
``Polytope.within_distance`` decides bit for bit, projecting only near
the radius.  Projections whose values reach a report (``rho``, the
anchor of the adjusted normal cone, the probe deviations) stay scalar.

Both sampled checks draw their segments through ``_draw_segments``,
which replays numpy's per-draw stream from one block of raw words; its
docstring gives the argument.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import FEAS, Polytope

__all__ = [
    "DomainError",
    "ArgminError",
    "LevelSetHandle",
    "StepLevelFunction",
    "certify_levels",
    "AdjustedAnchor",
    "AnalyticFunction",
    "analytic_from_name",
    "ANALYTIC_REGISTRY",
    "SamplingPlan",
    "CheckVerdict",
    "quasiconvexity_check",
    "adjusted_convexity_check",
]


class DomainError(ValueError):
    """Point lies outside the effective domain of the function."""


class ArgminError(ValueError):
    """Operation undefined on the argmin set (per the case split)."""


@dataclass(frozen=True)
class LevelSetHandle:
    """A sublevel or strict sublevel set with its polyhedral realization.

    For step functions both kinds are closed polytopes; ``is_closed``
    records that fact.  ``polytope`` is ``None`` when the set is empty.
    """

    kind: str  # "sublevel" | "strict_sublevel"
    level: float
    polytope: Polytope | None
    is_closed: bool = True
    level_index: int | None = None

    @property
    def is_empty(self) -> bool:
        return self.polytope is None


class StepLevelFunction:
    """Lower semicontinuous quasiconvex step function over nested polytopes.

    ``f(x) = min{levels[j] : x in polytopes[j]}`` and ``+inf`` outside the
    family.  Construction validates strictly increasing levels and
    nestedness step by step: exactly where every unit row of ``P_{j+1}``
    bounds ``P_j`` at an offset no larger (``Polytope.nests_in``), else
    where every vertex of ``P_j`` belongs to ``P_{j+1}`` within ``FEAS``.
    Pass ``validate=False`` only to build corrupted diagnostic instances.
    Each level's Chebyshev centre is computed on first use and kept by
    its polytope.
    """

    def __init__(self, levels, polytopes, *, validate=True):
        levels = [float(v) for v in levels]
        for i, v in enumerate(levels):
            if not math.isfinite(v):
                raise ValueError(
                    f"levels[{i}] must be a finite number, got {v!r}")
        polytopes = list(polytopes)
        if len(levels) != len(polytopes) or not levels:
            raise ValueError("levels and polytopes must align and be nonempty")
        dims = {p.dim for p in polytopes}
        if len(dims) != 1:
            raise ValueError("level polytopes must share a dimension")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if validate:
            for j, (inner, outer) in enumerate(zip(polytopes, polytopes[1:])):
                if inner.nests_in(outer):
                    continue
                if not outer.contains_many(inner.vertices(), FEAS).all():
                    raise ValueError(f"nestedness violated between levels "
                                     f"{levels[j]} and {levels[j + 1]}")
        self.levels = tuple(levels)
        self.polytopes = tuple(polytopes)
        self.dim = dims.pop()
        # Adjusted normal cones by exact key (``normal_op.adjusted_normal_cone``).
        self._cones = {}

    @classmethod
    def from_uncertified(cls, levels, polytopes, *, validate=True):
        """``cls(levels, polytopes, validate=validate)`` for level
        polytopes built with ``check_feasible=False`` and
        ``check_bounded=False``, certified first as a family by
        ``certify_levels``: where every step nests by rows, two LPs
        certify every level."""
        polytopes = list(polytopes)
        certify_levels(polytopes, all(
            inner.nests_in(outer)
            for inner, outer in zip(polytopes, polytopes[1:])))
        return cls(levels, polytopes, validate=validate)

    @property
    def domain(self) -> Polytope:
        return self.polytopes[-1]

    @property
    def argmin_set(self) -> Polytope:
        return self.polytopes[0]

    @property
    def has_full_dimensional_levels(self) -> bool:
        """Whether every level's Chebyshev radius exceeds ``FEAS``: the
        nonempty-interior hypothesis of the chart construction."""
        return all(p.chebyshev_center()[1] > FEAS for p in self.polytopes)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float).ravel()
        for lam, poly in zip(self.levels, self.polytopes):
            if poly.contains(x):
                return lam
        return math.inf

    def evaluate_many(self, points):
        """``evaluate`` on every row of ``points``: one float array."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        values = np.full(pts.shape[0], math.inf)
        for lam, poly in zip(reversed(self.levels), reversed(self.polytopes)):
            values[poly.contains_many(pts)] = lam
        return values

    def level_index(self, x):
        """Index of the level attained at x, or None outside the domain."""
        for j, poly in enumerate(self.polytopes):
            if poly.contains(x):
                return j
        return None

    def in_argmin(self, x):
        return self.polytopes[0].contains(x)

    def sublevel(self, level) -> LevelSetHandle:
        j = None
        for k, lam in enumerate(self.levels):
            if lam <= level + 1e-12:
                j = k
        if j is None:
            return LevelSetHandle("sublevel", level, None)
        return LevelSetHandle("sublevel", level, self.polytopes[j],
                              level_index=j)

    def strict_sublevel(self, level) -> LevelSetHandle:
        j = None
        for k, lam in enumerate(self.levels):
            if lam < level - 1e-12:
                j = k
        if j is None:
            return LevelSetHandle("strict_sublevel", level, None)
        # For step functions the strict sublevel set is itself closed.
        return LevelSetHandle("strict_sublevel", level, self.polytopes[j],
                              is_closed=True, level_index=j)

    def strict_level_distance(self, level, y):
        """Distance from y to the strict sublevel region (inf if empty)."""
        best = math.inf
        for lam, poly in zip(self.levels, self.polytopes):
            if lam < level - 1e-12:
                best = min(best, poly.project(y)[1])
        return best

    def rho(self, x):
        """Adjustment radius: distance from x to the strict sublevel set.

        Undefined on the argmin set and outside the domain.
        """
        x = np.asarray(x, dtype=float).ravel()
        value = self.evaluate(x)
        if math.isinf(value):
            raise DomainError("rho is undefined outside the domain")
        if self.in_argmin(x):
            raise ArgminError("rho is undefined on the argmin set")
        dist = self.strict_level_distance(value, x)
        if not math.isfinite(dist) or dist <= 0:
            raise DomainError("strict sublevel set empty or touching x")
        return dist

    def adjusted_contains(self, x, y, tol=None):
        """Membership of y in the adjusted sublevel set anchored at x."""
        return bool(AdjustedAnchor(self, x).contains_many([y], tol)[0])


def certify_levels(polytopes, nested=False):
    """Feasibility and boundedness of level polytopes built with both
    checks of ``Polytope`` off, raising the error, in the order, that
    building them one by one with the checks on raises.

    With ``nested`` (each level lies in the next by ``Polytope.nests_in``)
    the innermost level's feasibility LP covers every level, and so does
    the domain's boundedness certificate: every level lies in the domain.
    Otherwise, or when that certificate fails, each level runs its own
    checks in level order (the failed case repeats those two LPs).
    """
    if nested:
        polytopes[0]._check_feasible()
        if polytopes[-1]._bounded_certificate():
            return
    for p in polytopes:
        p._check_feasible()
        p._check_bounded()


class AdjustedAnchor:
    """An anchor x of the adjusted sublevel sets of a step function f:
    f(x), the argmin test and rho(x), each computed once on first use."""

    def __init__(self, f, x):
        self.f, self.x = f, x

    value = functools.cached_property(lambda self: self.f.evaluate(self.x))
    in_argmin = functools.cached_property(lambda self: self.f.in_argmin(self.x))
    rho = functools.cached_property(lambda self: self.f.rho(self.x))

    def contains_many(self, ys, tol=None):
        """Membership of every row of ``ys``, as a boolean array: in the
        sublevel set of f(x) and, off the argmin set, within
        ``rho(x) + tol`` of the strict sublevel set.  The strict levels
        are tried outermost first by ``Polytope.within_distance``, and a
        row near one skips the inner ones: the minimum distance is one of
        its operands, so the booleans are ``min(dist) <= rho(x) + tol``
        bit for bit.
        """
        f = self.f
        slack = tol if tol is not None else FEAS
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        if ys.shape[1] != f.dim:
            raise ValueError(f"expected points of dimension {f.dim}, "
                             f"got {ys.shape[1]}")
        value = self.value
        if math.isinf(value):
            raise DomainError("adjusted set undefined outside the domain")
        member = np.zeros(ys.shape[0], dtype=bool)
        for lam, poly in zip(f.levels, f.polytopes):
            if lam <= value + 1e-12:
                member |= poly.contains_many(ys)
        if not member.any() or self.in_argmin:
            return member
        radius = self.rho + slack
        inside = ys.compress(member, axis=0)
        near = np.zeros(inside.shape[0], dtype=bool)
        for lam, poly in zip(reversed(f.levels), reversed(f.polytopes)):
            if lam < value - 1e-12 and not near.all():
                far = ~near
                near[far] = poly.within_distance(inside.compress(far, axis=0),
                                                 radius)
        member[member] = near
        return member

    def sample(self, rng, count):
        """Points of the adjusted sublevel set: candidates from every
        level polytope at or below f(x), blended toward x (a member) and
        kept when they pass the membership test."""
        x, value = np.asarray(self.x, dtype=float).ravel(), self.value
        if math.isinf(value):
            raise DomainError("cannot sample outside the domain")
        blocks, size = [x[None]], 1
        eligible = [poly for lam, poly in zip(self.f.levels, self.f.polytopes)
                    if lam <= value + 1e-12]
        per = max(4, count)
        for poly in eligible:
            cand = np.vstack([poly.sample(rng, per), poly.vertices()])
            for t in (1.0, 0.5, 0.25):
                room = 4 * count - size
                if room <= 0:
                    break
                blended = x + t * (cand - x)
                blocks.append(blended[self.contains_many(blended)][:room])
                size += len(blocks[-1])
        pts = np.concatenate(blocks)
        if len(pts) > count:
            idx = rng.choice(len(pts), size=count, replace=False)
            pts = pts[idx]
        return pts


class AnalyticFunction:
    """Black-box function on an axis box, used for sampling-based checks."""

    def __init__(self, evaluator, domain_box, advertised_quasiconvex=False,
                 name=None):
        self.evaluator = evaluator
        self.domain_box = domain_box
        self.advertised_quasiconvex = bool(advertised_quasiconvex)
        self.name = name
        self.dim = domain_box.dim

    def evaluate(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if not self.domain_box.contains(x):
            return math.inf
        return float(self.evaluator(x))

    @property
    def domain(self) -> Polytope:
        return self.domain_box


ANALYTIC_REGISTRY = {
    "two_wells": (lambda x: abs(float(x[0]) ** 2 - 1.0), False),
    "max_abs": (lambda x: float(np.max(np.abs(x))), True),
    "norm": (lambda x: float(np.linalg.norm(x)), True),
}


def analytic_from_name(name, box):
    if name not in ANALYTIC_REGISTRY:
        raise KeyError(f"unknown analytic function {name!r}; "
                       f"registered: {sorted(ANALYTIC_REGISTRY)}")
    evaluator, qc = ANALYTIC_REGISTRY[name]
    return AnalyticFunction(evaluator, box, advertised_quasiconvex=qc, name=name)


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sampling budget: base points, pairs per point, seed."""

    points: int = 1000
    pairs: int = 100
    seed: int = 42


@dataclass
class CheckVerdict:
    passed: bool
    witness: dict | None
    checked: int
    kind: str = ""

    def to_dict(self):
        out = {"passed": self.passed, "checked": self.checked, "kind": self.kind}
        if self.witness is not None:
            out["witness"] = {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.witness.items()
            }
        return out


def _domain_pool(f, rng, count):
    """Sample the effective domain; for step functions this is the union
    of the level polytopes, which matters for corrupted families."""
    if isinstance(f, StepLevelFunction):
        per = max(8, count // len(f.polytopes))
        parts = [poly.sample(rng, per) for poly in f.polytopes]
        parts += [poly.vertices() for poly in f.polytopes]
        return np.vstack(parts)
    return np.vstack([f.domain.sample(rng, count), f.domain.vertices()])


_LOW32 = np.uint64(0xFFFFFFFF)


def _draw_segments(rng, size, count):
    """``count`` draws of an index pair and a weight, in the order the
    sampled checks consume them: two indices, then one uniform.

    The result, and the generator state left behind, are those of the
    loop ``rng.integers(0, size, size=2); rng.uniform()`` per draw.  On
    a PCG64 generator the loop's stream is replayed from one
    ``random_raw`` call.  numpy draws each index by Lemire's method from
    a 32-bit value, ``(u * size) >> 32``, and PCG64 serves 32-bit values
    as the low, then the high half of a 64-bit word, holding the high
    half in its ``has_uint32``/``uinteger`` buffer.  The uniform is
    ``(w >> 11) * 2**-53`` of a whole word and leaves the buffer alone.
    So each draw takes two words: the even one feeds two index values,
    the odd one the uniform, and a half buffered on entry is the first
    index value, shifting the halves by one.  Either way the buffer flag
    ends as it started, and its value is the high half of the last even
    word.  ``size == 1`` reads no index values.  If a value falls below
    Lemire's rejection threshold ``(2**32 - size) % size``, numpy would
    have drawn again; then, and for other bit generators or sizes
    outside ``[1, 2**32)``, the state is restored and the loop runs.
    These are numpy internals (as of numpy 2.4); digests of the stream
    pinned in the tests fail if a release changes them.
    """
    bits = rng.bit_generator
    if type(bits) is np.random.PCG64 and 1 <= size < 1 << 32:
        if size == 1:
            ts = (bits.random_raw(count) >> np.uint64(11)) * 2.0 ** -53
            return np.zeros(count, int), np.zeros(count, int), ts
        state = bits.state
        words = bits.random_raw(2 * count)
        halves = np.stack([words[0::2] & _LOW32, words[0::2] >> np.uint64(32)],
                          axis=1).ravel()
        if state["has_uint32"]:
            halves = np.concatenate([[np.uint64(state["uinteger"])], halves])
        scaled = halves[:2 * count] * np.uint64(size)
        if not ((scaled & _LOW32) < (2 ** 32 - size) % size).any():
            if count:
                after = bits.state
                after["uinteger"] = int(halves[-1])
                bits.state = after
            index = (scaled >> np.uint64(32)).astype(int)
            return (index[0::2], index[1::2],
                    (words[1::2] >> np.uint64(11)) * 2.0 ** -53)
        bits.state = state
    ii, jj, ts = np.empty(count, int), np.empty(count, int), np.empty(count)
    for k in range(count):
        ii[k], jj[k] = rng.integers(0, size, size=2)
        ts[k] = rng.uniform()
    return ii, jj, ts


def _blend(ts, first, second):
    return ts[:, None] * first + (1.0 - ts)[:, None] * second


def quasiconvexity_check(f, plan=None):
    """Segment test: f(t x + (1-t) y) <= max(f(x), f(y)) on sampled triples.

    Both kinds take their draws from ``_draw_segments``.  Step functions
    are evaluated in two batches (the pool, then every midpoint);
    analytic functions point by point, stopping at the first failure, so
    the draws after it go unused.  Both report the first failing triple
    in draw order.
    """
    plan = plan or SamplingPlan()
    rng = np.random.default_rng(plan.seed)
    pool = _domain_pool(f, rng, plan.points)
    tol = 1e-9

    def failure(x, y, t, checked, fx, fy, fmid):
        return CheckVerdict(False, {
            "x": x, "y": y, "t": t,
            "f_x": float(fx), "f_y": float(fy), "f_mid": float(fmid),
        }, checked, kind="quasiconvexity")

    ii, jj, ts = _draw_segments(rng, len(pool), plan.points)
    if isinstance(f, StepLevelFunction):
        values = f.evaluate_many(pool)
        keep = np.flatnonzero(np.isfinite(values[ii]) & np.isfinite(values[jj]))
        ii, jj, ts = ii[keep], jj[keep], ts[keep]
        fx, fy = values[ii], values[jj]
        fmid = f.evaluate_many(_blend(ts, pool[ii], pool[jj]))
        bad = np.flatnonzero(fmid > np.maximum(fx, fy) + tol)
        if bad.size:
            k = bad[0]
            return failure(pool[ii[k]], pool[jj[k]], float(ts[k]), int(k) + 1,
                           fx[k], fy[k], fmid[k])
        return CheckVerdict(True, None, len(keep), kind="quasiconvexity")

    checked = 0
    for i, j, t in zip(ii, jj, ts.tolist()):
        x, y = pool[i], pool[j]
        fx, fy = f.evaluate(x), f.evaluate(y)
        if math.isinf(fx) or math.isinf(fy):
            continue
        mid = t * x + (1.0 - t) * y
        fmid = f.evaluate(mid)
        checked += 1
        if fmid > max(fx, fy) + tol:
            return failure(x, y, t, checked, fx, fy, fmid)
    return CheckVerdict(True, None, checked, kind="quasiconvexity")


def _analytic_adjusted_witness(f, plan, rng):
    """Search for a nonconvex adjusted set of an analytic function.

    Membership is approximated on a box grid (801 points per axis in 1-D,
    161 above) with the level offset 1e-3; a witness is only reported
    when the midpoint misses the plain sublevel set by a solid margin,
    which is robust to the grid.
    """
    lo, hi = f.domain_box.bounding_box()
    axes = [np.linspace(lo[k], hi[k], 801 if f.dim == 1 else 161)
            for k in range(f.dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, f.dim)
    values = np.array([f.evaluate(p) for p in mesh])
    checked = 0
    for _ in range(plan.points // 4):
        x = f.domain_box.sample(rng, 1)[0]
        fx = f.evaluate(x)
        if math.isinf(fx):
            continue
        strict_mask = values <= fx - 1e-3
        if not strict_mask.any():
            continue
        strict_pts = mesh[strict_mask]
        radius = float(np.linalg.norm(strict_pts - x, axis=1).min())
        sub_mask = values <= fx + 1e-9
        members = mesh[sub_mask]
        dists = np.array([np.linalg.norm(strict_pts - y, axis=1).min()
                          for y in members])
        cell = max((hi - lo) / (len(axes[0]) - 1))
        adj = members[dists <= radius + 2 * cell]
        if len(adj) < 2:
            continue
        for _ in range(plan.pairs):
            i, j = rng.integers(0, len(adj), size=2)
            mid = 0.5 * (adj[i] + adj[j])
            checked += 1
            if f.evaluate(mid) > fx + 10 * cell:
                return CheckVerdict(False, {
                    "x": x, "y1": adj[i], "y2": adj[j], "mid": mid,
                    "f_x": fx, "f_mid": f.evaluate(mid),
                }, checked, kind="adjusted_convexity")
    return CheckVerdict(True, None, checked, kind="adjusted_convexity")


def adjusted_convexity_check(f, plan=None):
    """Convexity of the adjusted sublevel sets, tested on sampled pairs.

    Together with :func:`quasiconvexity_check` this exercises both
    directions of the equivalence between quasiconvexity and convex
    adjusted sublevel sets: on every valid instance the two verdicts
    agree.
    """
    plan = plan or SamplingPlan()
    rng = np.random.default_rng(plan.seed)
    if isinstance(f, AnalyticFunction):
        return _analytic_adjusted_witness(f, plan, rng)
    pool = _domain_pool(f, rng, max(16, plan.points // 10))
    pool = pool[rng.permutation(len(pool))]
    checked = 0
    for x in pool[: max(8, plan.points // 50)]:
        anchor = AdjustedAnchor(f, x)
        if math.isinf(anchor.value):
            continue
        members = anchor.sample(rng, max(8, plan.pairs // 4))
        if len(members) < 2:
            continue
        ii, jj, ts = _draw_segments(rng, len(members), plan.pairs)
        mids = _blend(ts, members[ii], members[jj])
        bad = np.flatnonzero(~anchor.contains_many(mids, tol=1e-7))
        if bad.size:
            k = bad[0]
            return CheckVerdict(False, {
                "x": x, "y1": members[ii[k]], "y2": members[jj[k]],
                "t": float(ts[k]), "mid": mids[k],
            }, checked + int(k) + 1, kind="adjusted_convexity")
        checked += plan.pairs
    return CheckVerdict(True, None, checked, kind="adjusted_convexity")

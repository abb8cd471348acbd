"""Quasioptimization via the normal-operator reduction.

A quasioptimization problem asks for a point minimizing ``f`` over its
own constraint set ``K(x)``.  The reduction builds the operator

    T(x) = dual unit box                     on the argmin set of f,
    T(x) = global base of the normal cone    elsewhere,

and solves the associated generalized quasivariational inequality.  Any
accepted point is post-verified against a dense grid of its own
constraint set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import FEAS, Polytope
from .gqvi import (
    GqviInstance,
    SolveReport,
    SolverConfig,
    fixed_point_set,
    solve as gqvi_solve,
)

# The benchmark's layer tracer and its self-test expect this binding to be
# the traced ``gqvi._grid_points`` (ROADMAP item 5 renames that target at
# the next benchmark change).
from .geometry import grid_points as _grid_points
from .normal_op import Atlas, global_base
from .quasiconvex import StepLevelFunction

__all__ = [
    "VerificationError",
    "TFromNormal",
    "QuasioptInstance",
    "QuasioptReport",
    "solve_quasiopt",
]


class VerificationError(RuntimeError):
    """The candidate fails the independent grid verification."""


class TFromNormal:
    """Operator for the reduction: dual box on the argmin set, glued
    normal-cone base elsewhere.

    The dual unit box stands in for the dual ball; only its symmetry
    around the origin matters, since argmin points are accepted with
    residual zero regardless.  Off the argmin set, evaluation raises a
    coverage error wherever the atlas has a hole.
    """

    def __init__(self, f: StepLevelFunction, atlas: Atlas):
        self.f = f
        self.atlas = atlas
        self.dim = f.dim
        self._dual_box = Polytope.from_box(-np.ones(f.dim), np.ones(f.dim))

    def value(self, x) -> Polytope:
        if self.f.in_argmin(x):
            return self._dual_box
        return global_base(self.atlas, self.f, x).base


@dataclass
class QuasioptInstance:
    f: StepLevelFunction
    constraint_map: object  # MovingPolytope
    atlas: Atlas
    config: SolverConfig = field(default_factory=SolverConfig)
    tol_opt: float = 1e-6
    grid_divisions: int = 200

    def validate(self):
        fixed_point_set(self.constraint_map)  # raises when empty
        lo, hi = self.constraint_map.box.bounding_box()
        corners = Polytope.from_box(lo, hi).vertices()
        for c in corners:
            if math.isinf(self.f.evaluate(c)):
                raise ValueError("constraint box leaves the domain of f")


@dataclass
class QuasioptReport:
    x: np.ndarray | None
    f_value: float | None
    gqvi: SolveReport
    verified: bool
    grid_min: float | None
    in_argmin: bool
    message: str = ""

    def to_dict(self):
        return {
            "x": None if self.x is None else np.asarray(self.x).tolist(),
            "f_value": self.f_value,
            "verified": self.verified,
            "grid_min": self.grid_min,
            "in_argmin": self.in_argmin,
            "message": self.message,
            "gqvi": self.gqvi.to_dict(),
        }


def _constraint_grid(instance, x):
    feasible = instance.constraint_map.value(x)
    mesh = max(feasible.diameter() / instance.grid_divisions, 1e-9)
    return _grid_points(feasible, mesh)


def solve_quasiopt(instance: QuasioptInstance) -> QuasioptReport:
    """Solve the reduction and verify the result against a grid oracle.

    A ``residual_floor`` outcome is reported without any quasiopt claim.
    A ``solved`` point must beat the grid minimum of f over its own
    constraint set within ``tol_opt``; anything else raises, it is never
    silently accepted.
    """
    instance.validate()
    operator = TFromNormal(instance.f, instance.atlas)
    gqvi_instance = GqviInstance(instance.constraint_map, operator,
                                 config=instance.config)
    report = gqvi_solve(gqvi_instance)
    if report.status != "solved":
        return QuasioptReport(x=report.x, f_value=None, gqvi=report,
                              verified=False, grid_min=None, in_argmin=False,
                              message="solver returned no verified solution")
    x = report.x
    f_value = instance.f.evaluate(x)
    grid = _constraint_grid(instance, x)
    values = instance.f.evaluate_many(grid)
    grid_min = float(values.min()) if len(values) else math.inf
    if f_value > grid_min + instance.tol_opt:
        raise VerificationError(
            f"f(x) = {f_value} exceeds the grid minimum {grid_min} "
            f"over K(x); the atlas or solver is inadequate")
    return QuasioptReport(x=x, f_value=float(f_value), gqvi=report,
                          verified=True, grid_min=grid_min,
                          in_argmin=instance.f.in_argmin(x))

"""Polytope oracles shared by the tests."""

import numpy as np


def same_set(first, second, tol=1e-7):
    """Set equality of two polytopes via mutual vertex membership."""
    return (bool(second.contains_many(first.vertices(), tol).all())
            and bool(first.contains_many(second.vertices(), tol).all()))


def is_inside_point(polytope, x):
    """Membership in the relative interior (no proper face contains x)."""
    x = np.asarray(x, dtype=float).ravel()
    tol = polytope.tolerances.feas
    if not polytope.contains(x, tol):
        return False
    facet_idx, equality_idx = polytope.reduced()
    a, b = polytope.halfspaces
    for i in equality_idx:
        if abs(a[i] @ x - b[i]) > tol:
            return False
    for i in facet_idx:
        if a[i] @ x > b[i] - tol:
            return False
    return True

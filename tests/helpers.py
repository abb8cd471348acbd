"""Polytope oracles shared by the tests."""

import numpy as np
from scipy.optimize import nnls

from adjcone.geometry import FEAS


def same_set(first, second, tol=1e-7):
    """Set equality of two polytopes via mutual vertex membership."""
    return (bool(second.contains_many(first.vertices(), tol).all())
            and bool(first.contains_many(second.vertices(), tol).all()))


def assert_projection_kkt(polytope, x, p, d):
    """``(p, d)`` is the projection of ``x``: ``p`` is feasible, ``d`` is
    ``|x - p|``, and ``x - p`` is a nonnegative combination of the rows
    active at ``p`` (inactive rows carry no multiplier)."""
    a, b = polytope.halfspaces
    assert np.all(a @ p <= b + 1e-9)
    assert d == np.linalg.norm(x - p)
    active = a @ p >= b - 1e-9
    _, residual = nnls(a[active].T, x - p)
    assert residual <= 1e-9 * max(1.0, d)


def is_inside_point(polytope, x):
    """Membership in the relative interior (no proper face contains x)."""
    x = np.asarray(x, dtype=float).ravel()
    tol = FEAS
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


def band_edge_points(polytope, radius, rng):
    """Points at distance ``radius * (1 -/+ 1e-12)`` from the polytope.

    Each point is a boundary point ``p`` plus a unit vector ``n`` of the
    normal cone at ``p``, so its projection is ``p``: facet centroids
    pushed along their facet normal, vertices pushed along random unit
    combinations of their active normals (there the segment from the
    Chebyshev center leaves the polytope far from ``p``, so the exit-point
    bound is loose), and, for flat polytopes, the vertex centroid pushed
    along each implicit equality normal.
    """
    a, b = polytope.halfspaces
    verts = polytope.vertices()
    active = a @ verts.T >= b[:, None] - 1e-9
    facet_idx, equality_idx = polytope.reduced()
    feet = [verts[active[i]].mean(axis=0) for i in facet_idx]
    normals = [a[i] for i in facet_idx]
    for j, v in enumerate(verts):
        n = rng.uniform(0.1, 1.0, size=active[:, j].sum()) @ a[active[:, j]]
        if np.linalg.norm(n) > 1e-6:
            feet.append(v)
            normals.append(n / np.linalg.norm(n))
    for i in equality_idx:
        feet.append(verts.mean(axis=0))
        normals.append(a[i])
    feet, normals = np.array(feet), np.array(normals)
    return np.vstack([feet + radius * (1.0 + s) * normals
                      for s in (-1e-12, 1e-12)])

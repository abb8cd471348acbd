"""Seeded instance generator for the benchmark workloads.

Writes schema-v1 JSON instance files.  Every polytope is ``{x : A x <= b}``
with ``b > 0`` and unit normals that positively span R^n, so it is
bounded and holds the origin in its interior.  Nested levels are scaled
copies of one polytope, so nesting holds by construction.  The program
under test only ever sees the files; the seed stays here.
"""

from __future__ import annotations

import json
import os

import numpy as np


def _spanning_normals(rng, dim, count):
    """``count`` unit normals whose nonnegative combinations cover R^n.

    The first ``dim + 1`` rows are the vertex directions of a randomly
    rotated simplex centred on the origin (which positively span on their
    own); the rest are uniform on the sphere.
    """
    simplex = np.vstack([np.eye(dim), -np.ones((1, dim)) / np.sqrt(dim)])
    simplex -= simplex.mean(axis=0)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q *= np.sign(np.diag(r))
    rows = [simplex @ q.T]
    if count > dim + 1:
        rows.append(rng.normal(size=(count - dim - 1, dim)))
    normals = np.vstack(rows)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals[rng.permutation(count)]


def _polytope(a, b):
    return {"A": a.tolist(), "b": b.tolist()}


def _boundary_distance(a, b, direction):
    """Largest t with ``a (t u) <= b``, for ``b > 0`` and bounded ``a``."""
    rates = a @ direction
    return float(np.min(b[rates > 0] / rates[rates > 0]))


def _unit(rng, dim):
    u = rng.normal(size=dim)
    return u / np.linalg.norm(u)


def step_family(rng, dim, facets, scales=(1.0, 2.0, 3.0)):
    """Nested step function with ``len(scales)`` levels and two probe points.

    Returns ``(instance, facet_point, interior_point)``: a point on a facet
    of the middle level polytope, and a point strictly between the middle
    and the top level boundaries (in the interior of a level band).
    """
    a = _spanning_normals(rng, dim, facets)
    b = rng.uniform(1.0, 1.5, size=facets)
    instance = {
        "schema_version": 1,
        "type": "step",
        "levels": [float(k) for k in range(len(scales))],
        "polytopes": [_polytope(a, s * b) for s in scales],
    }
    u = _unit(rng, dim)
    facet_point = scales[1] * _boundary_distance(a, b, u) * u
    u = _unit(rng, dim)
    t = _boundary_distance(a, b, u)
    interior_point = 0.5 * (scales[1] + scales[2]) * t * u
    return instance, facet_point, interior_point


def gqvi_instance(rng, dim, facets, box=2.0):
    """Moving polytope ``K(x) = {y : A y <= b + D x} ∩ [-box, box]^n`` with
    a non-box A, and a constant operator polytope T that avoids the origin.

    ``|D x|`` stays below half of ``b`` on the box, so every K(x) holds a
    ball around the origin and is never empty.
    """
    a = _spanning_normals(rng, dim, facets)
    b = rng.uniform(0.8, 1.4, size=facets)
    d = rng.uniform(-1.0, 1.0, size=(facets, dim))
    d *= (0.5 * b.min() / (box * np.abs(d).sum(axis=1).max()))
    # T stays clear of the origin: with 0 in T every feasible x would
    # solve the inequality at once and the solver would do no work.
    t_b = np.zeros(1)
    while t_b.min() > -0.2:
        t_normals = _spanning_normals(rng, dim, dim + 2)
        center = 1.5 * _unit(rng, dim)
        t_b = t_normals @ center + rng.uniform(0.3, 0.6, size=dim + 2)
    eye = np.eye(dim)
    return {
        "schema_version": 1,
        "K": {"A": a.tolist(), "b": b.tolist(), "D": d.tolist(),
              "box": _polytope(np.vstack([eye, -eye]),
                               np.full(2 * dim, box))},
        "T": {"kind": "constant", "polytope": _polytope(t_normals, t_b)},
        "solver": {"starts": 4, "seed": int(rng.integers(2**31))},
    }


def write_json(path, data):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def coords(point):
    """``--at`` value: round-trip exact, passed as ``--at=<coords>``."""
    return ",".join(repr(float(v)) for v in point)

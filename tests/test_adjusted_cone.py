"""The exact adjusted normal cone against the sampled audit it replaced.

``reference_adjusted_normal_cone`` is the earlier implementation: it
assembles the same generators (active facet normals of the sublevel
polytope plus the enlargement ray), then projects sampled points of the
adjusted set and falls back to their polar when a generator makes a
product above the cone tolerance with one of them.  That audit tests
only the easy inclusion ``N_sub(x) + N_E(x) ⊆ N_{sub ∩ E}(x)``, which
always holds, so the fallback never runs and the exact cone must match
the reference bit for bit.  The sum-rule certificate
``sub.contains(P_strict(x))`` is checked on every nested family.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adjcone.geometry import (
    CONE,
    FEAS,
    GeneratedCone,
    GeometryError,
    Polytope,
    normal_cone_at,
)
from adjcone.normal_op import adjusted_normal_cone, polar_of_samples
from adjcone.quasiconvex import DomainError, StepLevelFunction

_VERIFY_SEED = 20240601
REFERENCE_SAMPLES = 100  # the reference output does not depend on it

NESTED = ["step1d", "sq2d", "nested3d", "rotated", "pentagons2d",
          "simplex3d", "simplex4d"]
FAMILIES = NESTED + ["corrupted1d"]

PROPERTY = settings(max_examples=15, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


class ConeVerificationError(GeometryError):
    """Assembled generators failed verification and so did the fallback."""


def _sample_adjusted_polyhedral(f, x, sublevel_poly, strict_poly, radius, rng,
                                count):
    """Points of ``sublevel ∩ B(strict, radius)`` for generator verification."""
    cand = np.vstack([
        sublevel_poly.sample(rng, 3 * count),
        sublevel_poly.vertices(),
        x[None, :],
    ])
    blends = np.vstack([x + t * (cand - x) for t in (1.0, 0.6, 0.3)])
    _, dist = strict_poly.project_many(blends)
    keep = blends[dist <= radius + FEAS]
    if len(keep) > count:
        keep = keep[rng.choice(len(keep), size=count, replace=False)]
    return keep


def reference_adjusted_normal_cone(f, x, verify_samples=REFERENCE_SAMPLES):
    """The sampled implementation.

    Returns ``(cone, sampled points, whether the polar fallback ran)``.
    """
    x = np.asarray(x, dtype=float).ravel()
    value = f.evaluate(x)
    if math.isinf(value):
        raise DomainError("point outside the domain")
    if f.in_argmin(x):
        cone = normal_cone_at(f.polytopes[0], x)
        return cone, np.zeros((0, f.dim)), False

    sub = f.sublevel(value).polytope
    strict = f.strict_sublevel(value).polytope
    anchor, radius = strict.project(x)
    if radius <= FEAS:
        raise GeometryError("enlargement radius degenerate at x")
    ray = (x - anchor) / radius
    facets = normal_cone_at(sub, x)
    gens = np.vstack([facets.generators, ray[None, :]])
    cone = GeneratedCone.from_rays(gens, dim=f.dim)

    rng = np.random.default_rng(_VERIFY_SEED)
    points = _sample_adjusted_polyhedral(f, x, sub, strict, radius, rng,
                                         verify_samples)
    fell_back = False
    if len(points):
        slackmax = ((points - x) @ cone.generators.T).max()
        if slackmax > CONE:
            fell_back = True
            cone = polar_of_samples(points, x, dim=f.dim)
            if not cone.is_zero:
                slackmax = ((points - x) @ cone.generators.T).max()
                if slackmax > 10 * CONE:
                    raise ConeVerificationError(
                        f"fallback polar still violates the definition "
                        f"(slack {slackmax:.2e})")
    return cone.minimal(), points, fell_back


def simplex_family(seed, dim, facets):
    """Nested non-box family: one polytope at scales 1, 2, 3, with the unit
    normals of a randomly rotated simplex plus uniform directions."""
    rng = np.random.default_rng(seed)
    simplex = np.vstack([np.eye(dim), -np.ones((1, dim)) / np.sqrt(dim)])
    simplex -= simplex.mean(axis=0)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    a = np.vstack([simplex @ q.T, rng.normal(size=(facets - dim - 1, dim))])
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = rng.uniform(1.0, 1.5, size=facets)
    return StepLevelFunction([0.0, 1.0, 2.0],
                             [Polytope(a, s * b) for s in (1.0, 2.0, 3.0)])


@pytest.fixture(scope="module")
def simplex3d():
    return simplex_family(31, 3, 8)


@pytest.fixture(scope="module")
def simplex4d():
    return simplex_family(41, 4, 9)


def _exit_time(poly, start, u):
    """Largest t with ``start + t u`` in the polytope, for ``start`` inside."""
    a, b = poly.halfspaces
    rates = a @ u
    up = rates > 1e-12
    return float(np.min((b[up] - a[up] @ start) / rates[up]))


def probe_point(f, data):
    """A vertex or a facet point of a level polytope above the argmin
    level, or a point strictly between two level boundaries."""
    kind = data.draw(st.sampled_from(["vertex", "facet", "interior"]))
    j = data.draw(st.integers(1, len(f.polytopes) - 1))
    poly = f.polytopes[j]
    if kind == "vertex":
        verts = poly.vertices()
        return verts[data.draw(st.integers(0, len(verts) - 1))]
    u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=f.dim,
                                    max_size=f.dim)))
    if np.linalg.norm(u) < 1e-3:
        u = np.eye(f.dim)[0]
    u = u / np.linalg.norm(u)
    if kind == "facet":
        start = poly.chebyshev_center()[0]
        return start + _exit_time(poly, start, u) * u
    start = f.polytopes[0].chebyshev_center()[0]
    lower = f.polytopes[j - 1]
    if lower.contains(start) and poly.contains(start):
        t_low = _exit_time(lower, start, u)
    else:  # non-nested family: walk from inside the level polytope
        start, t_low = poly.chebyshev_center()[0], 0.0
    s = data.draw(st.floats(0.05, 0.95))
    return start + (t_low + s * (_exit_time(poly, start, u) - t_low)) * u


def outcome(compute):
    try:
        return compute()
    except (DomainError, GeometryError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", FAMILIES)
@PROPERTY
@given(data=st.data())
def test_exact_cone_matches_sampled_reference(name, request, data):
    f = request.getfixturevalue(name)
    x = probe_point(f, data)
    expected = outcome(lambda: reference_adjusted_normal_cone(f, x))
    got = outcome(lambda: adjusted_normal_cone(f, x))
    if isinstance(expected, type):
        assert got is expected
        return
    reference, points, fell_back = expected
    assert not fell_back
    assert np.array_equal(got.generators, reference.generators)
    if len(points) and not got.is_zero:
        products = (points - x) @ got.generators.T
        assert products.max() <= FEAS
    if name in NESTED and not f.in_argmin(x):
        value = f.evaluate(x)
        anchor, _ = f.strict_sublevel(value).polytope.project(x)
        assert f.sublevel(value).polytope.contains(anchor)


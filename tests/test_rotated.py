"""Non-axis-aligned instances: exercises the general projection, vertex
enumeration, and polar paths that the box fast paths skip."""

import math

import numpy as np
import pytest

from adjcone.geometry import Polytope
from adjcone.normal_op import (
    adjusted_normal_cone,
    build_atlas,
    global_base,
    quasimonotonicity_probe,
    strict_normal_cone,
)
from adjcone.quasiconvex import (
    SamplingPlan,
    adjusted_convexity_check,
    quasiconvexity_check,
)

# the rotation of the ``rotated`` fixture (conftest.py)
THETA = math.pi / 7
ROT = np.array([[math.cos(THETA), -math.sin(THETA)],
                [math.sin(THETA), math.cos(THETA)]])


def test_checks_pass(rotated):
    plan = SamplingPlan(points=400, pairs=40, seed=3)
    assert quasiconvexity_check(rotated, plan).passed
    assert adjusted_convexity_check(rotated, plan).passed


def test_rho_and_cone_at_face_point(rotated):
    x = ROT @ np.array([1.6, 0.0])
    assert rotated.rho(x) == pytest.approx(0.8)
    cone = adjusted_normal_cone(rotated, x)
    np.testing.assert_allclose(cone.generators,
                               (ROT @ np.array([1.0, 0.0]))[None, :],
                               atol=1e-9)
    strict = strict_normal_cone(rotated, x)
    assert all(strict.contains(g, 1e-7) for g in cone.generators)


def test_atlas_and_global_base(rotated):
    center = ROT @ np.array([1.5, 0.0])
    region = Polytope.from_vertices([center + ROT @ np.array([dx, dy])
                                     for dx in (-0.2, 0.2)
                                     for dy in (-0.3, 0.3)])
    atlas = build_atlas(rotated, region, 0.15, argmin_margin=0.15)
    grid = atlas.verification_grid()
    assert all(atlas.bump_values(p).sum() > 0 for p in grid)
    result = global_base(atlas, rotated, center)
    verts = result.base.vertices()
    assert np.linalg.norm(verts, axis=1).max() <= 1 + 1e-9
    assert result.base.project(np.zeros(2))[1] >= 1e-3


def test_quasimonotone(rotated):
    verdict = quasimonotonicity_probe(rotated, pair_samples=300, seed=5,
                                      pool_size=50)
    assert verdict.passed

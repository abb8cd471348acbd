import math

import numpy as np
import pytest

from adjcone import lp
from adjcone.geometry import Polytope
from adjcone.quasiconvex import StepLevelFunction


@pytest.fixture(autouse=True)
def _fresh_lp_cache():
    """Each test starts on an empty LP body cache: a replay runs no pivot,
    so a body cached by an earlier test would change what a test sees."""
    lp.clear_cache()


@pytest.fixture(scope="session")
def step1d():
    """Levels {0,1,2} over [-1,0] ⊂ [-1,1] ⊂ [-1,2]."""
    return StepLevelFunction(
        [0.0, 1.0, 2.0],
        [Polytope.from_box([-1.0], [0.0]),
         Polytope.from_box([-1.0], [1.0]),
         Polytope.from_box([-1.0], [2.0])])


@pytest.fixture(scope="session")
def sq2d():
    """Levels {1,2} over [-1,1]^2 ⊂ [-2,2]^2."""
    return StepLevelFunction(
        [1.0, 2.0],
        [Polytope.from_box([-1, -1], [1, 1]),
         Polytope.from_box([-2, -2], [2, 2])])


@pytest.fixture(scope="session")
def nested3d():
    """Random nested family of three boxes in R^3 (seeded)."""
    rng = np.random.default_rng(20240611)
    lo0 = rng.uniform(-0.6, -0.3, size=3)
    hi0 = rng.uniform(0.3, 0.6, size=3)
    lo1 = lo0 - rng.uniform(0.4, 0.8, size=3)
    hi1 = hi0 + rng.uniform(0.4, 0.8, size=3)
    lo2 = lo1 - rng.uniform(0.4, 0.8, size=3)
    hi2 = hi1 + rng.uniform(0.4, 0.8, size=3)
    return StepLevelFunction(
        [0.0, 1.0, 2.0],
        [Polytope.from_box(lo0, hi0),
         Polytope.from_box(lo1, hi1),
         Polytope.from_box(lo2, hi2)])


@pytest.fixture(scope="session")
def corrupted1d():
    """Non-nested family (P0 not inside P1): the diagnostic instance."""
    return StepLevelFunction(
        [0.0, 1.0, 2.0],
        [Polytope.from_box([0.0], [0.1]),
         Polytope.from_box([1.0], [1.4]),
         Polytope.from_box([1.5], [3.0])],
        validate=False)


@pytest.fixture(scope="session")
def pentagons2d():
    """Nested non-box family: rotated regular pentagons of growing radius."""
    def pentagon(radius, turn):
        angles = turn + 2 * np.pi * np.arange(5) / 5
        return Polytope.from_vertices(
            radius * np.column_stack([np.cos(angles), np.sin(angles)]))

    return StepLevelFunction(
        [0.0, 1.0, 2.0],
        [pentagon(0.5, 0.0), pentagon(1.2, 0.3), pentagon(2.0, 0.1)])


@pytest.fixture(scope="session")
def rotated():
    """Two nested squares turned by pi/7: levels {0,1}, half-widths 0.8, 2."""
    theta = math.pi / 7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    rows = np.vstack([rot @ v for v in np.vstack([np.eye(2), -np.eye(2)])])
    inner = Polytope(rows, np.ones(4) * 0.8)
    outer = Polytope(rows, np.ones(4) * 2.0)
    return StepLevelFunction([0.0, 1.0], [inner, outer])

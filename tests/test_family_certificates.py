"""Step families certified at once against the level-by-level oracle."""

import numpy as np
import pytest

from adjcone import lp
from adjcone.serialization import function_from_dict
from helpers import bits, eager_levels, eager_step_function


def _rotated_cube(rng, dim):
    """The rows +-Q e_i of a random rotation Q: a non-box cube."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return np.vstack([q, -q])


def _family(a_rows, offsets, **extra):
    return {"type": "step", "levels": [float(k) for k in range(len(offsets))],
            "polytopes": [{"A": np.asarray(a).tolist(),
                           "b": np.asarray(b).tolist()}
                          for a, b in zip(a_rows, offsets)], **extra}


def shared(rng, dim):
    a = np.vstack([_rotated_cube(rng, dim), rng.normal(size=(3, dim))])
    b = rng.uniform(1.0, 1.5, len(a))
    return _family([a] * 3, [s * b for s in (1.0, 2.0, 3.0)])


def extra_rows(rng, dim):
    # Each level keeps the rows of the next, tighter, and adds its own.
    a = _rotated_cube(rng, dim)
    b = rng.uniform(1.0, 1.5, len(a))
    middle, inner = rng.normal(size=(2, dim)), rng.normal(size=(3, dim))
    cut = rng.uniform(0.5, 1.0, 2)
    return _family([np.vstack([a, middle, inner]), np.vstack([a, middle]), a],
                   [np.concatenate([b, 0.5 * cut, rng.uniform(0.2, 0.5, 3)]),
                    np.concatenate([2 * b, cut]), 3 * b])


def crossing(rng, dim):
    # One offset of the middle level passes the outer one: the rows do
    # not nest, and the vertex test decides.
    family = shared(rng, dim)
    row = int(rng.integers(len(family["polytopes"][1]["b"])))
    family["polytopes"][1]["b"][row] = 1.2 * family["polytopes"][2]["b"][row]
    return family


def distinct(rng, dim):
    # Cubes of half-widths 1, 2.5 and 7, each turned its own way: the
    # circumradius sqrt(dim) h of one fits in the next.
    return _family([_rotated_cube(rng, dim) for _ in range(3)],
                   [np.full(2 * dim, h) for h in (1.0, 2.5, 7.0)])


def unbounded(rng, dim):
    a = rng.normal(size=(2 * dim + 1, dim))
    a[:, 0] = np.abs(a[:, 0]) + 0.1
    return _family([a] * 3, [s * np.ones(len(a)) for s in (1.0, 2.0, 3.0)])


def empty_innermost(rng, dim):
    family = shared(rng, dim)
    inner = family["polytopes"][0]
    u = rng.normal(size=dim)
    inner["A"] += [u.tolist(), (-u).tolist()]
    inner["b"] += [-1.0, -1.0]
    return family


def unvalidated(rng, dim):
    family = shared(rng, dim)
    family["polytopes"][:2] = family["polytopes"][1::-1]
    return {**family, "validate": False}


def empty_then_malformed(rng, dim):
    family = empty_innermost(rng, dim)
    family["polytopes"][1]["b"][0] = "x"
    return family


FAMILIES = [shared, extra_rows, crossing, distinct, unbounded,
            empty_innermost, unvalidated, empty_then_malformed]
ROW_NESTED = {shared, extra_rows}


def _load(build):
    lp.clear_cache()
    try:
        return build(), lp.cache_counts()["calls"]
    except Exception as exc:  # noqa: BLE001 - compared with the oracle's
        return exc, None


@pytest.mark.parametrize("make", FAMILIES, ids=lambda m: m.__name__)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_family_certificates_match_level_by_level(make, seed, dim):
    # Where the oracle raises, the loader raises the same type and
    # message; otherwise every level has the oracle's vertices, Chebyshev
    # centre and bounding box, bit for bit.  A family nested by rows
    # costs two certificate LPs, any other the oracle's.
    data = make(np.random.default_rng([seed, dim]), dim)
    want, _ = _load(lambda: eager_step_function(data))
    got, calls = _load(lambda: function_from_dict(data))
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert got.levels == want.levels
    for p, q in zip(got.polytopes, want.polytopes):
        assert bits(p.vertices()) == bits(q.vertices())
        (c, r), (d, s) = p.chebyshev_center(), q.chebyshev_center()
        assert bits(c) == bits(d) and bits(r) == bits(s)
        for u, v in zip(p.bounding_box(), q.bounding_box()):
            assert bits(u) == bits(v)
    _, certificates = _load(lambda: eager_levels(data))
    assert calls == (2 if make in ROW_NESTED else certificates)

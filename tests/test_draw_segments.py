"""Batched segment draws against the per-draw loop they replaced.

``quasiconvex._draw_segments`` replays numpy's stream from raw PCG64
words.  ``reference_draw_segments`` is the loop it replaced; every case
must return the same arrays (bytes and dtypes) and leave the generator
in the same state, the 32-bit buffer included.  The pinned digests make
a numpy whose bounded-integer or uniform stream changes fail here first.
"""

import hashlib
import pickle

import numpy as np
import pytest

from adjcone.quasiconvex import _draw_segments


def reference_draw_segments(rng, size, count):
    """The per-draw loop the replay replaced."""
    ii, jj, ts = np.empty(count, int), np.empty(count, int), np.empty(count)
    for k in range(count):
        ii[k], jj[k] = rng.integers(0, size, size=2)
        ts[k] = rng.uniform()
    return ii, jj, ts


class CountingGenerator(np.random.Generator):
    """A Generator that counts its ``integers`` calls, so a test can tell
    the replay (no calls) from the loop."""

    calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


def generator(kind, seed):
    """A generator in a given state: fresh, with a 32-bit half in the
    PCG64 buffer, with a stale buffer value, or another bit generator."""
    bits = {"mt19937": np.random.MT19937, "philox": np.random.Philox,
            "sfc64": np.random.SFC64}.get(kind, np.random.PCG64)(seed)
    rng = CountingGenerator(bits)
    if kind == "buffered":
        rng.integers(0, 10, size=1)
        assert rng.bit_generator.state["has_uint32"] == 1
    if kind == "stale":
        rng.integers(0, 10, size=2)
        rng.uniform()
        held = rng.bit_generator.state
        assert held["has_uint32"] == 0 and held["uinteger"] != 0
    rng.calls = 0
    return rng


def state(rng):
    """The full bit-generator state, arrays included, as bytes."""
    return pickle.dumps(rng.bit_generator.state)


def assert_same_draws(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


KINDS = ["fresh", "buffered", "stale"]
# 2**31 + 1 and 2**32 - 2**30 reject about half and a quarter of the
# 32-bit values, so any batch of a few draws falls back to the loop.
SIZES = [1, 2, 25, 1000, 2**31 + 1, 2**32 - 2**30, 2**32 - 1]
COUNTS = [0, 1, 2, 64]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("count", COUNTS)
def test_matches_loop_on_pcg64(kind, size, count):
    for seed in range(4):
        want_rng, got_rng = generator(kind, seed), generator(kind, seed)
        want = reference_draw_segments(want_rng, size, count)
        got = _draw_segments(got_rng, size, count)
        assert_same_draws(got, want)
        assert state(got_rng) == state(want_rng)
        # The later stream continues identically.
        assert got_rng.integers(0, 97, size=3).tolist() == \
            want_rng.integers(0, 97, size=3).tolist()


@pytest.mark.parametrize("size, count, loop_calls", [
    (25, 64, 0),          # no rejection in these draws: pure replay
    (1, 64, 0),
    (2**31 + 1, 64, 64),  # a rejection: state restored, loop runs
    (2**32, 3, 3),        # outside Lemire's 32-bit range
    (2**32 + 5, 3, 3),
])
def test_path_taken(size, count, loop_calls):
    rng, ref = generator("fresh", 7), generator("fresh", 7)
    assert_same_draws(_draw_segments(rng, size, count),
                      reference_draw_segments(ref, size, count))
    assert rng.calls == loop_calls
    assert state(rng) == state(ref)


@pytest.mark.parametrize("kind", ["mt19937", "philox", "sfc64"])
@pytest.mark.parametrize("size", [1, 25])
def test_other_bit_generators_run_the_loop(kind, size):
    rng, ref = generator(kind, 3), generator(kind, 3)
    assert_same_draws(_draw_segments(rng, size, 20),
                      reference_draw_segments(ref, size, 20))
    assert rng.calls == 20
    assert state(rng) == state(ref)


def test_bad_size_raises_like_the_loop():
    for size in (0, -3):
        with pytest.raises(ValueError) as want:
            reference_draw_segments(np.random.default_rng(0), size, 2)
        with pytest.raises(ValueError) as got:
            _draw_segments(np.random.default_rng(0), size, 2)
        assert str(got.value) == str(want.value)


def _digest(arrays, rng):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest()


# Recorded from the per-draw loop on numpy 2.4.6.
PINNED = {
    ("fresh", 25):
        "65c55cb983685a611708767aecfe611bae5eab760bea15835e5ec2831ad4b522",
    ("buffered", 25):
        "36bcdfcf631c1734d29a4a772051164ed3e932c3cbb3ec7120d467dc8497708b",
    ("fresh", 613):
        "0c9db4a6a2c925f9560658eeaa6bd0ae0655c3cad9ff08ded78f9545b14ebdf7",
    ("buffered", 613):
        "03166ededa3d0ea7c6d6d8324ba0b9fcf38c539f1f9d3b24a2616884b6abe414",
}


@pytest.mark.parametrize("kind, size", sorted(PINNED))
def test_stream_pinned(kind, size):
    rng = generator(kind, 20240611)
    assert _digest(_draw_segments(rng, size, 500), rng) == PINNED[kind, size]

"""The work probe points share: the certified chart sections an ``Atlas``
keeps, the one adjusted normal cone per key a function keeps, and the one
cone per distinct approach point of ``closedness_probe``.  Each cached
path is checked bit for bit against the uncached oracles in ``helpers``,
on the shipped ``sq2d`` and ``step1d`` atlases, on the non-box ``STEP_3D``
atlas the CLI builds and, for the cones, on the non-nested
``corrupted1d``."""

import argparse
import json
import os

import numpy as np
import pytest

from adjcone import cli, normal_op
from adjcone.cli import run
from adjcone.geometry import GeneratedCone, GeometryError, Polytope
from adjcone.normal_op import (
    Atlas,
    BaseInvariantError,
    ChartError,
    LocalChart,
    adjusted_normal_cone,
    closedness_probe,
    global_base,
    usc_probe,
)
from adjcone.quasiconvex import ArgminError, DomainError, StepLevelFunction
from adjcone.serialization import dump_json, load_instance
from helpers import (
    STEP_3D,
    bits,
    uncached_adjusted_normal_cone,
    uncached_closedness_probe,
    uncached_global_base,
)

SHIPPED = os.path.join(os.path.dirname(__file__), os.pardir, "instances")
ATLAS_3D_AT = [-2.176945166118501, 0.3610854896423776, -1.782008854052674]
# name -> (probe point, --mesh) of the atlas the CLI builds there.
ATLASES = {"sq2d": ([1.5, 0.5], None), "step1d": ([0.5], None),
           "step3d": (ATLAS_3D_AT, 0.14)}
FAILURES = (GeometryError, DomainError, ArgminError, ValueError)


def load_function(name, tmp_path):
    if name == "step3d":
        path = tmp_path / "step3d.json"
        dump_json(STEP_3D, path)
    else:
        path = os.path.join(SHIPPED, f"{name}.json")
    return load_instance(str(path))[1]


def cli_atlas(name, tmp_path):
    """The function and the atlas that ``usc-probe`` builds at the point."""
    payload = load_function(name, tmp_path)
    at, mesh = ATLASES[name]
    at = np.array(at)
    atlas = cli._resolve_atlas(payload, payload["function"],
                               argparse.Namespace(mesh=mesh), at=at,
                               radii=cli._parse_radii(None))
    return payload["function"], atlas, at


def usc_points(at, seed=42):
    """The points ``usc_probe`` visits around ``at`` with the CLI seed."""
    points = []
    box = Polytope.from_box(-np.ones(len(at)), np.ones(len(at)))
    usc_probe(lambda p: points.append(np.array(p)) or box, at, seed=seed)
    return points


def base_outcome(call):
    """Every bit of a global base, or the error it raised."""
    try:
        result = call()
    except FAILURES as exc:
        return type(exc), str(exc)
    a, b = result.base.halfspaces
    return (bits(a), bits(b), bits(result.base.vertices()),
            result.active_charts, bits(result.cone.generators))


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_global_base_matches_uncached_oracle(name, tmp_path):
    f, atlas, at = cli_atlas(name, tmp_path)
    grid = atlas.verification_grid()
    points = [*usc_points(at), *grid[::max(1, len(grid) // 300)]]
    first = [base_outcome(lambda: global_base(atlas, f, p)) for p in points]
    again = [base_outcome(lambda: global_base(atlas, f, p)) for p in points]
    want = [base_outcome(lambda: uncached_global_base(atlas, f, p))
            for p in points]
    assert first == want
    assert again == want
    results = [w for w in want if len(w) == 5]
    # Both the one-section and the Minkowski path ran, and sections were
    # shared: fewer were built than requested.
    assert {len(w[3]) == 1 for w in results} == {True, False}
    assert len(atlas._sections) < sum(len(w[3]) for w in results)


def verdict_bits(verdict):
    return (verdict.passed, verdict.checked, verdict.kind,
            [(bits(v["direction"]), bits(v["limit"]), v["drift"])
             for v in verdict.violations])


@pytest.mark.parametrize("name, at", [
    ("step1d", [0.5]), ("step1d", [1.0]), ("step1d", [1.5]),
    ("sq2d", [1.5, 0.5]), ("sq2d", [2.0, 0.0]), ("sq2d", [2.0, 2.0]),
    ("step3d", ATLAS_3D_AT),
    ("step3d", [-1.563297783202433, -0.5910371217147096, -1.6280455207780833]),
])
@pytest.mark.parametrize("seed", [0, 42])
def test_closedness_probe_matches_uncached_oracle(name, at, seed, tmp_path):
    f = load_function(name, tmp_path)["function"]
    got = closedness_probe(f, at, approach_sequences=40, seed=seed)
    want = uncached_closedness_probe(f, at, approach_sequences=40, seed=seed)
    assert verdict_bits(got) == verdict_bits(want)


def counting(monkeypatch, name, key):
    """Replace ``normal_op.<name>`` by a wrapper that records ``key`` of
    each call's arguments."""
    calls = []
    wrapped = getattr(normal_op, name)

    def counted(*args):
        calls.append(key(*args))
        return wrapped(*args)

    monkeypatch.setattr(normal_op, name, counted)
    return calls


def test_closedness_probe_computes_one_cone_per_point(monkeypatch, tmp_path):
    # In 1-D the unit directions are exactly +-1: 100 sequences at four
    # scales visit 8 points, plus the probe point itself.  Without the
    # dict this made 401 calls.  With one membership LP per distinct
    # limit the command makes 1 LP call (103 with one per direction, and
    # 3 more while the load computed every level's Chebyshev centre).
    calls = counting(monkeypatch, "adjusted_normal_cone",
                     lambda f, x: np.asarray(x).tobytes())
    out = tmp_path / "o"
    assert run(["closedness-probe", "--instance",
                os.path.join(SHIPPED, "step1d.json"), "--at=0.5",
                "--out", str(out)]) == 0
    assert len(calls) == len(set(calls)) == 9
    lp_counts = json.loads((out / "manifest.json").read_text())["lp"]
    assert (lp_counts["calls"], lp_counts["replayed"]) == (1, 0)


@pytest.mark.parametrize("holds", [True, False])
def test_closedness_probe_decides_each_limit_once(holds, monkeypatch,
                                                  tmp_path):
    # On step1d at 0.5 all 100 accumulation directions share one limit and
    # one slack, so one membership test decides them; the test per
    # direction made 100, all but two of them replayed LPs.  A cone at the
    # point that holds no limit turns every direction into a violation,
    # as in the oracle.
    f = load_function("step1d", tmp_path)["function"]
    at = np.array([0.5])
    cone = normal_op.adjusted_normal_cone
    calls = []

    class Probed:
        def __init__(self, inner):
            self.inner = inner

        def contains(self, v, tol=None):
            calls.append((np.asarray(v).tobytes(), tol))
            return holds and self.inner.contains(v, tol)

    monkeypatch.setattr(normal_op, "adjusted_normal_cone",
                        lambda g, x: Probed(cone(g, x))
                        if np.array_equal(x, at) else cone(g, x))
    got = closedness_probe(f, at)
    assert len(calls) == len(set(calls)) == 1
    want = uncached_closedness_probe(f, at)
    assert len(calls) == 1 + got.checked == 101
    assert verdict_bits(got) == verdict_bits(want)
    assert len(got.violations) == (0 if holds else 100)


def test_usc_probe_builds_one_section_per_chart_and_cone(monkeypatch,
                                                         tmp_path):
    # The 81 global bases of usc-probe sq2d share one cone.  Without the
    # atlas caches they built 99 sections and ran 81 base checks.  Each
    # built section runs the one cone check of its certificate; checking
    # the bits of each distinct base instead ran 17.
    sections = counting(monkeypatch, "_ball_section",
                        lambda cone, chart: (chart.center.tobytes(),
                                             cone.generators.tobytes()))
    checks = []
    equals = GeneratedCone.equals
    monkeypatch.setattr(GeneratedCone, "equals",
                        lambda self, *a: checks.append(1) or equals(self, *a))
    assert run(["usc-probe", "--instance", os.path.join(SHIPPED, "sq2d.json"),
                "--at=1.5,0.5", "--out", str(tmp_path / "o")]) == 0
    assert len(sections) == len(set(sections)) == 9
    assert len(checks) == 9


def far_anchor_atlas():
    """One chart at 0.5 whose anchor sits 0.05 away: the section of the
    plateau ray lies at norm 0.1 / 0.05 = 2, outside the dual unit ball."""
    chart = LocalChart(center=np.array([0.5]), level=0.5,
                       anchor=np.array([0.45]), radius=0.1)
    return Atlas((chart,), Polytope.from_box([0.4], [0.6]), 0.1)


def test_failing_section_is_never_cached(step1d, monkeypatch):
    atlas = far_anchor_atlas()
    calls = counting(monkeypatch, "_ball_section", lambda cone, chart: 1)
    cone = adjusted_normal_cone(step1d, [0.5])
    for expected in (1, 2):
        with pytest.raises(ChartError, match="leaves the dual unit ball"):
            atlas.section(0, cone)
        assert len(calls) == expected
    with pytest.raises(ChartError, match="leaves the dual unit ball"):
        global_base(atlas, step1d, [0.5])
    assert len(calls) == 3
    assert atlas._sections == {}


def test_failing_base_check_is_never_cached(step1d, monkeypatch):
    # One chart whose anchor sits 999.5 away cuts the plateau ray at norm
    # 0.5 / 1000, inside the dual unit ball but below the nonzero margin.
    chart = LocalChart(center=np.array([0.5]), level=0.5,
                       anchor=np.array([-999.5]), radius=0.5)
    atlas = Atlas((chart,), Polytope.from_box([0.0], [1.0]), 0.5)
    cone = adjusted_normal_cone(step1d, [0.5])
    for _ in range(2):
        with pytest.raises(BaseInvariantError, match="below the nonzero"):
            atlas.section(0, cone)
    with pytest.raises(BaseInvariantError, match="below the nonzero"):
        global_base(atlas, step1d, [0.5])
    assert atlas._sections == {}
    # A section that does not regenerate its cone fails its cone check.
    monkeypatch.setattr(normal_op, "_ball_section",
                        lambda cone, chart: Polytope.from_vertices([[0.5]]))
    for _ in range(2):
        with pytest.raises(BaseInvariantError, match="does not generate"):
            atlas.section(0, GeneratedCone.from_rays([[-1.0]]))
    assert atlas._sections == {}
    # The cone is part of the key: the same section bits pass for the
    # cone they do generate.
    assert atlas.section(0, cone).vertices().tolist() == [[0.5]]
    assert len(atlas._sections) == 1


def test_atlas_caches_drop_the_oldest_past_the_cap(step1d, monkeypatch):
    # Sections 0.1 / (1 + k) pass every check of the certificate.
    monkeypatch.setattr(normal_op, "_ATLAS_CACHE", 3)
    charts = tuple(LocalChart(center=np.array([0.5]), level=0.5,
                              anchor=np.array([-0.5 - k]), radius=0.1)
                   for k in range(5))
    atlas = Atlas(charts, Polytope.from_box([0.4], [0.6]), 0.1)
    cone = adjusted_normal_cone(step1d, [0.5])
    for i in range(5):
        section = atlas.section(i, cone)
        assert atlas.section(i, cone) is section
    assert [key[0] for key in atlas._sections] == [2, 3, 4]
    # The entry of chart 0 was dropped, so its section is built again.
    calls = counting(monkeypatch, "_ball_section", lambda cone, chart: 1)
    atlas.section(0, cone)
    assert len(calls) == 1
    assert [key[0] for key in atlas._sections] == [3, 4, 0]


def fresh_function(name, tmp_path, corrupted1d):
    """The function ``name`` with an empty cone memo."""
    if name == "corrupted1d":
        return StepLevelFunction(corrupted1d.levels, corrupted1d.polytopes,
                                 validate=False)
    return load_function(name, tmp_path)["function"]


def approach_points(at, seed, sequences=40):
    """The points ``closedness_probe`` visits around ``at``, before it
    skips those outside the domain or in the argmin set."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(sequences):
        direction = rng.normal(size=len(at))
        direction /= np.linalg.norm(direction)
        points += [np.asarray(at) + t * direction
                   for t in (1e-1, 1e-2, 1e-3, 1e-4)]
    return points


def cone_outcome(call):
    """The generator bits of a cone, or the error it raised."""
    try:
        return bits(call().generators)
    except FAILURES as exc:
        return type(exc), str(exc)


# name -> probe points, besides a vertex of the domain; corrupted1d's
# straddle the gap (1.4, 1.5) between its upper levels, where the
# sum-rule certificate fails.
CONE_POINTS = {"sq2d": [[1.5, 0.5], [2.0, 0.0], [2.0, 2.0]],
               "step1d": [[0.5], [1.0], [1.5]],
               "step3d": [ATLAS_3D_AT],
               "corrupted1d": [[1.45], [1.2], [1.5]]}


@pytest.mark.parametrize("name", sorted(CONE_POINTS))
def test_adjusted_normal_cone_matches_uncached_oracle(name, tmp_path,
                                                      corrupted1d):
    f = fresh_function(name, tmp_path, corrupted1d)
    probes = [*CONE_POINTS[name], f.domain.vertices()[0]]
    points = [p for at in probes for seed in (0, 42)
              for p in [*usc_points(at, seed), *approach_points(at, seed)]]
    points += normal_op._regular_point_pool(f, np.random.default_rng(42), 160)
    first = [cone_outcome(lambda: adjusted_normal_cone(f, p)) for p in points]
    again = [cone_outcome(lambda: adjusted_normal_cone(f, p)) for p in points]
    want = [cone_outcome(lambda: uncached_adjusted_normal_cone(f, p))
            for p in points]
    assert first == want
    assert again == want
    # Both cones and errors were compared, and cones were shared: fewer
    # were assembled than returned off the argmin set.
    assert {len(w) == 2 and isinstance(w[0], bytes) for w in want} == {
        True, False}
    assert 0 < len(f._cones) < len(points)


@pytest.mark.parametrize("args, calls, assemblies", [
    (["usc-probe", "sq2d", "--at=1.5,0.5"], 81, 1),
    (["solve-quasiopt", "quasiopt_window1d"], 41, 4),
    (["quasimono-probe", "sq2d"], 44, 16),
    (["closedness-probe", "step1d", "--at=0.5"], 9, 1),
], ids=["usc-sq2d", "quasiopt-window1d", "quasimono-sq2d",
        "closedness-step1d"])
def test_commands_assemble_each_distinct_cone_once(args, calls, assemblies,
                                                   monkeypatch, tmp_path):
    # Each memo miss runs ``minimal`` once; every call assembled a cone
    # before the memo.
    command, name, *rest = args
    seen = counting(monkeypatch, "adjusted_normal_cone", lambda f, x: 1)
    built = []
    minimal = GeneratedCone.minimal
    monkeypatch.setattr(GeneratedCone, "minimal",
                        lambda self: built.append(1) or minimal(self))
    assert run([command, "--instance", os.path.join(SHIPPED, f"{name}.json"),
                *rest, "--out", str(tmp_path / "o")]) == 0
    assert (len(seen), len(built)) == (calls, assemblies)


def test_cone_memo_drops_the_oldest_past_the_cap(monkeypatch, tmp_path):
    # Five sq2d points with five keys: four rays off the faces of the
    # inner square, and one active facet of the outer square.
    monkeypatch.setattr(normal_op, "_ATLAS_CACHE", 3)
    f = load_function("sq2d", tmp_path)["function"]
    points = [[1.5, 0.5], [0.5, 1.5], [-1.5, 0.5], [0.5, -1.5], [2.0, 0.5]]
    cones = [adjusted_normal_cone(f, p) for p in points]
    assert len(f._cones) == 3
    assert list(f._cones.values()) == cones[2:]
    # The first cone was dropped, so it is assembled again.
    again = adjusted_normal_cone(f, [1.5, 0.5])
    assert again is not cones[0]
    assert list(f._cones.values()) == [*cones[3:], again]
    assert bits(again.generators) == bits(cones[0].generators)
    assert adjusted_normal_cone(f, [2.0, 0.5]) is cones[4]

import json
import math
import os
import re

import numpy as np
import pytest

from adjcone import serialization
from adjcone.geometry import Polytope
from adjcone.gqvi import ConstantOperator, GqviInstance, MovingPolytope, SolverConfig
from adjcone.normal_op import build_atlas
from adjcone.serialization import (
    SchemaError,
    atlas_build_from_dict,
    atlas_from_dict,
    atlas_to_dict,
    dump_json,
    function_from_dict,
    function_to_dict,
    gqvi_instance_from_dict,
    gqvi_instance_to_dict,
    load_instance,
    operator_from_dict,
    polytope_from_dict,
    polytope_to_dict,
    solver_config_from_dict,
)
from helpers import DIMENSION_IDS, DIMENSION_MISMATCHES, same_set


def test_polytope_round_trip():
    poly = Polytope.from_box([-1.0, 0.5], [2.0, 3.5])
    data = polytope_to_dict(poly)
    back = polytope_from_dict(data)
    assert same_set(back, poly)


def test_polytope_missing_field_named():
    with pytest.raises(SchemaError, match="'b'"):
        polytope_from_dict({"A": [[1.0]]})


def test_step_function_round_trip(step1d):
    back = function_from_dict(function_to_dict(step1d))
    assert back.levels == step1d.levels
    assert all(same_set(p, q) for p, q in zip(back.polytopes, step1d.polytopes))


def test_analytic_round_trip():
    data = {"type": "analytic", "name": "two_wells",
            "box": polytope_to_dict(Polytope.from_box([-2.0], [2.0]))}
    f = function_from_dict(data)
    assert f.name == "two_wells"
    assert f.evaluate([0.0]) == pytest.approx(1.0)
    assert function_to_dict(f)["name"] == "two_wells"


def test_unknown_analytic_name():
    data = {"type": "analytic", "name": "mystery",
            "box": polytope_to_dict(Polytope.from_box([-1.0], [1.0]))}
    with pytest.raises(SchemaError, match="mystery"):
        function_from_dict(data)


def test_atlas_round_trip(step1d):
    atlas = build_atlas(step1d, Polytope.from_box([0.25], [1.75]), 0.25,
                        argmin_margin=0.25)
    back = atlas_from_dict(atlas_to_dict(atlas))
    assert len(back.charts) == len(atlas.charts)
    for a, b in zip(atlas.charts, back.charts):
        np.testing.assert_allclose(a.center, b.center)
        np.testing.assert_allclose(a.anchor, b.anchor)
        assert a.radius == b.radius and a.level == b.level
    # weights agree pointwise
    for p in atlas.verification_grid()[:20]:
        ia, wa = atlas.weights(p)
        ib, wb = back.weights(p)
        assert np.array_equal(ia, ib)
        np.testing.assert_allclose(wa, wb)


def test_gqvi_instance_round_trip():
    box = Polytope.from_box([-2.0], [2.0])
    cm = MovingPolytope(a=[[1.0], [-1.0]], b=[1.0, 1.0],
                        d=[[0.5], [-0.5]], box=box)
    instance = GqviInstance(cm, ConstantOperator(Polytope.from_vertices([[1.0]])))
    data = gqvi_instance_to_dict(instance)
    back = gqvi_instance_from_dict(data)
    np.testing.assert_allclose(back.constraint_map.a, cm.a)
    np.testing.assert_allclose(back.constraint_map.d, cm.d)
    assert back.config == instance.config


def test_solver_unknown_field_named():
    box = Polytope.from_box([-2.0], [2.0])
    cm = MovingPolytope(a=[[1.0]], b=[1.0], d=[[0.0]], box=box)
    data = gqvi_instance_to_dict(
        GqviInstance(cm, ConstantOperator(Polytope.from_vertices([[1.0]]))))
    data["solver"]["bogus"] = 3
    with pytest.raises(SchemaError, match="bogus"):
        gqvi_instance_from_dict(data)


def test_solver_limits_are_inclusive():
    # The smallest values each rule allows load unchanged; an int gamma
    # counts as a number.
    data = {"starts": 0, "max_iters": 1, "mesh_divisions": 1, "seed": 0,
            "gamma": 1, "tol_solve": 1e-300}
    assert solver_config_from_dict(data) == SolverConfig(**data)


def test_load_instance_classifies(tmp_path, step1d):
    f_path = tmp_path / "f.json"
    dump_json({"schema_version": 1, **function_to_dict(step1d)}, f_path)
    kind, payload = load_instance(f_path)
    assert kind == "function"

    box = Polytope.from_box([-2.0], [2.0])
    cm = MovingPolytope(a=[[1.0]], b=[1.0], d=[[0.0]], box=box)
    g_path = tmp_path / "g.json"
    dump_json(gqvi_instance_to_dict(
        GqviInstance(cm, ConstantOperator(Polytope.from_vertices([[0.5]])))), g_path)
    kind, payload = load_instance(g_path)
    assert kind == "gqvi"


def test_load_instance_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="JSON"):
        load_instance(path)
    path2 = tmp_path / "empty.json"
    path2.write_text("{}")
    with pytest.raises(SchemaError):
        load_instance(path2)


def test_atlas_missing_chart_field_named():
    with pytest.raises(SchemaError, match="z0"):
        atlas_from_dict({"charts": [{"z": [0.5], "lambda": 0.5, "eps": 0.2}],
                         "region": {"A": [[1.0], [-1.0]], "b": [1.0, 1.0]},
                         "cover_step": 0.2})


@pytest.mark.parametrize("text, field", [
    ('{"type": "step", "levels": [0.0, 1e400], "polytopes": []}', "levels[1]"),
    ('{"K": {"A": [[1.0]], "b": [NaN]}, "T": {}}', "K.b[0]"),
    ('{"K": {"A": [[1.0]], "b": [1.0, -Infinity]}, "T": {}}', "K.b[1]"),
    ('{"type": "step", "levels": [-1E+999], "polytopes": []}', "levels[0]"),
])
def test_load_instance_names_non_finite_field(text, field, tmp_path):
    # Python's json accepts NaN and Infinity and turns overflowing
    # literals into inf; none of them may reach the geometry.
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=rf"^{re.escape(field)} must be a finite"):
        load_instance(path)


_REGION = {"A": [[1.0], [-1.0]], "b": [1.0, 1.0]}


@pytest.mark.parametrize("parse, data, field", [
    (atlas_from_dict,
     {"charts": [{"z": [float("nan")], "lambda": 0.5, "z0": [0.0], "eps": 0.2}],
      "region": _REGION, "cover_step": 0.2},
     "atlas.charts[0].z[0]"),
    (atlas_from_dict,
     {"charts": [{"z": [0.5], "lambda": 0.5, "z0": [0.0], "eps": float("inf")}],
      "region": _REGION, "cover_step": 0.2},
     "atlas.charts[0].eps"),
    (atlas_from_dict,
     {"charts": [], "region": _REGION, "cover_step": float("nan")},
     "atlas.cover_step"),
    (solver_config_from_dict, {"tol_solve": float("nan")}, "solver.tol_solve"),
    (operator_from_dict,
     {"kind": "tabulated", "axis": 0, "breakpoints": [float("nan")],
      "polytopes": [_REGION, _REGION]},
     "T.breakpoints[0]"),
    (operator_from_dict,
     {"kind": "constant", "polytope": {"A": np.array([[1.0], [-np.inf]]),
                                       "b": [1.0, 1.0]}},
     "T.polytope.A[1][0]"),
    (function_from_dict,
     {"type": "step", "levels": [0.0, float("nan")],
      "polytopes": [_REGION, _REGION]},
     "function.levels[1]"),
], ids=["atlas-z", "atlas-eps", "atlas-cover-step", "solver-tol-solve",
        "operator-breakpoints", "operator-polytope-array", "function-levels"])
def test_parsers_name_non_finite_field(parse, data, field):
    # Called directly, the parsers see no file-level check; each must
    # still refuse NaN and infinities and name the field.
    with pytest.raises(SchemaError, match=rf"^{re.escape(field)} must be a finite"):
        parse(data)


def test_atlas_build_spec_is_build_atlas_arguments():
    spec = atlas_build_from_dict({"region": _REGION, "cover_step": 1,
                                  "argmin_margin": 0, "radius_cap": 0.5})
    assert set(spec) == {"region", "cover_step", "argmin_margin", "radius_cap"}
    assert (spec["cover_step"], spec["argmin_margin"], spec["radius_cap"]) == (
        1.0, 0.0, 0.5)
    assert same_set(spec["region"], Polytope.from_box([-1.0], [1.0]))
    assert set(atlas_build_from_dict({"region": _REGION, "cover_step": 0.5})) == {
        "region", "cover_step"}


@pytest.mark.parametrize("data, message", [
    ({"region": _REGION, "cover_step": 0.5, "radius": 1.0},
     "unknown field 'radius' in atlas_build"),
    ({"region": _REGION, "cover_step": float("nan")},
     "atlas_build.cover_step must be a finite number"),
    ({"region": _REGION, "cover_step": "0.5"},
     "atlas_build.cover_step must be positive, got '0.5'"),
    ({"region": _REGION, "cover_step": 0.5, "argmin_margin": None},
     "atlas_build.argmin_margin must be a number >= 0, got None"),
], ids=["unknown-field", "nan", "text", "null-margin"])
def test_atlas_build_parser_names_the_field(data, message):
    with pytest.raises(SchemaError, match=rf"^{re.escape(message)}"):
        atlas_build_from_dict(data)


_SQUARE = {"A": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
           "b": [1.0, 1.0, 1.0, 1.0]}


def _chart(**fields):
    return {"z": [0.5, 0.2], "lambda": 0.5, "z0": [0.0, 0.0], "eps": 0.3,
            **fields}


@pytest.mark.parametrize("chart, cover_step, message", [
    (_chart(z=[0.5]), 0.2,
     "atlas.charts[0].z has 1 coordinates, expected 2"),
    (_chart(z=[[0.5, 0.2]]), 0.2,
     "atlas.charts[0].z[0] must be a number, got [0.5, 0.2]"),
    (_chart(z0=[0.0, 0.0, 0.0]), 0.2,
     "atlas.charts[0].z0 has 3 coordinates, expected 2"),
    (_chart(z=["a", 0.2]), 0.2,
     "atlas.charts[0].z[0] must be a number, got 'a'"),
    (_chart(z=[True, 0.2]), 0.2,
     "atlas.charts[0].z[0] must be a number, got True"),
    (_chart(z0=[0.0, False]), 0.2,
     "atlas.charts[0].z0[1] must be a number, got False"),
    (_chart(eps=-0.3), 0.2, "atlas.charts[0].eps must be positive, got -0.3"),
    (_chart(eps=0.0), 0.2, "atlas.charts[0].eps must be positive, got 0.0"),
    (_chart(), 0.0, "atlas.cover_step must be positive, got 0.0"),
], ids=["z-short", "z-nested", "z0-long", "z-text", "z-bool", "z0-bool",
        "eps-negative", "eps-zero", "cover-step-zero"])
def test_atlas_parser_names_malformed_chart(chart, cover_step, message):
    # Unchecked, a short z broadcast against every point (no chart ever
    # covered), a nested z loaded as a 1x2 center, a bool in z loaded as
    # the coordinate 0 or 1, and a negative eps loaded as a chart that
    # covers nothing.
    data = {"charts": [chart], "region": _SQUARE, "cover_step": cover_step}
    with pytest.raises(SchemaError, match=rf"^{re.escape(message)}"):
        atlas_from_dict(data)
    assert len(atlas_from_dict({**data, "charts": [_chart()],
                                "cover_step": 0.2}).charts) == 1


SHIPPED = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


@pytest.mark.parametrize("name, field, value, message", DIMENSION_MISMATCHES,
                         ids=DIMENSION_IDS)
def test_load_instance_rejects_dimension_mismatch(name, field, value, message,
                                                  tmp_path):
    # Unchecked, a 2-D T over the 1-D moving interval abandoned every
    # step and reported "infeasible", a 2-D K passed verify, and a 2-D
    # region failed in build_atlas with a message that named no field.
    with open(os.path.join(SHIPPED, f"{name}.json")) as handle:
        data = json.load(handle)
    path = tmp_path / "bad.json"
    dump_json({**data, field: value}, path)
    with pytest.raises(SchemaError, match=rf"^{re.escape(message)}$"):
        load_instance(path)


def _nodes(value):
    if isinstance(value, dict):
        return 1 + sum(_nodes(item) for item in value.values())
    if isinstance(value, list):
        return 1 + sum(_nodes(item) for item in value)
    return 1


def _last_number(value, path=()):
    """The key path of the last number in ``value``, in walk order."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    found = None
    for key, item in items:
        if isinstance(item, float):
            found = (*path, key)
        else:
            found = _last_number(item, (*path, key)) or found
    return found


@pytest.mark.parametrize("name", sorted(os.listdir(SHIPPED)))
def test_load_instance_walks_each_value_once(name, monkeypatch, tmp_path):
    # The parser flags a non-finite number as it reads it, so a clean
    # file is not walked at all.  A file with one is walked once, to name
    # its path; no value is visited twice (a second walk per parser once
    # visited every number of a function, atlas or operator twice).
    walk = serialization._reject_non_finite
    visits = []

    def counting(value, where):
        visits.append(where)
        return walk(value, where)

    monkeypatch.setattr(serialization, "_reject_non_finite", counting)
    path = os.path.join(SHIPPED, name)
    load_instance(path)
    assert visits == []
    with open(path) as handle:
        data = json.load(handle)
    node = data
    *parents, last = _last_number(data)
    for key in parents:
        node = node[key]
    node[last] = -math.inf
    bad = tmp_path / name
    bad.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=r" must be a finite number, got -inf"):
        load_instance(bad)
    assert len(set(visits)) == len(visits) <= _nodes(data)
    assert visits[-1] == "".join(
        f"[{key}]" if isinstance(key, int) else f".{key}" if i else key
        for i, key in enumerate(_last_number(data)))

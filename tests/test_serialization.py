import re

import numpy as np
import pytest

from adjcone.geometry import Polytope
from adjcone.gqvi import ConstantOperator, GqviInstance, MovingPolytope
from adjcone.normal_op import build_atlas
from adjcone.serialization import (
    SchemaError,
    atlas_from_dict,
    atlas_to_dict,
    dump_json,
    function_from_dict,
    function_to_dict,
    gqvi_instance_from_dict,
    gqvi_instance_to_dict,
    load_instance,
    polytope_from_dict,
    polytope_to_dict,
)


def test_polytope_round_trip():
    poly = Polytope.from_box([-1.0, 0.5], [2.0, 3.5])
    data = polytope_to_dict(poly)
    back = polytope_from_dict(data)
    assert back.same_set(poly)


def test_polytope_missing_field_named():
    with pytest.raises(SchemaError, match="'b'"):
        polytope_from_dict({"A": [[1.0]]})


def test_step_function_round_trip(step1d):
    back = function_from_dict(function_to_dict(step1d))
    assert back.levels == step1d.levels
    assert all(p.same_set(q) for p, q in zip(back.polytopes, step1d.polytopes))


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
])
def test_load_instance_names_non_finite_field(text, field, tmp_path):
    # Python's json accepts NaN and Infinity and turns overflowing
    # literals into inf; none of them may reach the geometry.
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=rf"^{re.escape(field)} must be a finite"):
        load_instance(path)

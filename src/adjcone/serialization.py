"""JSON wire formats (schema_version 1) for instances and reports.

Polytope: ``{"A": [[...]], "b": [...]}`` with an optional ``"V"`` vertex
list.  Functions are either step families or registered analytic names.
Atlases persist their charts with the keys ``z``, ``lambda``, ``z0``,
``eps``.  All numbers are IEEE doubles.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .geometry import Polytope
from .gqvi import ConstantOperator, GqviInstance, MovingPolytope, SolverConfig, TabulatedOperator
from .normal_op import Atlas, LocalChart
from .quasiconvex import AnalyticFunction, StepLevelFunction, analytic_from_name

__all__ = [
    "SchemaError",
    "SCHEMA_VERSION",
    "polytope_to_dict",
    "polytope_from_dict",
    "function_to_dict",
    "function_from_dict",
    "atlas_to_dict",
    "atlas_from_dict",
    "atlas_build_from_dict",
    "moving_polytope_to_dict",
    "moving_polytope_from_dict",
    "operator_to_dict",
    "operator_from_dict",
    "gqvi_instance_to_dict",
    "gqvi_instance_from_dict",
    "load_instance",
    "dump_json",
]

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Malformed instance data; the message names the offending field."""


def _need(mapping, field, where):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where} must be an object")
    if field not in mapping:
        raise SchemaError(f"missing field {field!r} in {where}")
    return mapping[field]


def _need_list(mapping, field, where):
    value = _need(mapping, field, where)
    if not isinstance(value, list):
        raise SchemaError(f"{where}.{field} must be a list, got {value!r}")
    return value


def polytope_to_dict(polytope: Polytope) -> dict:
    a, b = polytope.halfspaces
    out = {"A": a.tolist(), "b": b.tolist()}
    if polytope._vertices is not None:
        out["V"] = polytope._vertices.tolist()
    return out


def polytope_from_dict(data, where="polytope") -> Polytope:
    if not isinstance(data, dict):
        raise SchemaError(f"{where} must be an object with 'A' and 'b'")
    a = _numbers(_need(data, "A", where), f"{where}.A", rows=True)
    b = _numbers(_need(data, "b", where), f"{where}.b")
    v = data.get("V")
    if v is not None:
        v = _numbers(v, f"{where}.V", rows=True)
    try:
        return Polytope(a, b, vertices=v)
    except ValueError as exc:
        raise SchemaError(f"invalid {where}: {exc}") from exc


def function_to_dict(f) -> dict:
    if isinstance(f, StepLevelFunction):
        return {
            "type": "step",
            "levels": list(f.levels),
            "polytopes": [polytope_to_dict(p) for p in f.polytopes],
        }
    if isinstance(f, AnalyticFunction):
        if f.name is None:
            raise SchemaError("analytic function has no registered name")
        return {"type": "analytic", "name": f.name,
                "box": polytope_to_dict(f.domain_box)}
    raise SchemaError(f"unsupported function type {type(f).__name__}")


# Each public parser first rejects non-finite numbers in its data, then
# parses it with its private form; ``load_instance`` rejects them in the
# whole file once and calls the private forms.


def function_from_dict(data, where="function"):
    _reject_non_finite(data, where)
    return _function(data, where)


def _function(data, where):
    kind = _need(data, "type", where)
    if kind == "step":
        levels = [_number(v, f"{where}.levels[{i}]")
                  for i, v in enumerate(_need_list(data, "levels", where))]
        polys = _need_list(data, "polytopes", where)
        if len(levels) != len(polys):
            raise SchemaError(f"{where}: levels and polytopes lengths differ")
        validate = data.get("validate", True)
        if not isinstance(validate, bool):
            raise SchemaError(f"{where}.validate must be true or false, "
                              f"got {validate!r}")
        return StepLevelFunction(
            levels,
            [polytope_from_dict(p, f"{where}.polytopes[{i}]")
             for i, p in enumerate(polys)],
            validate=validate)
    if kind == "analytic":
        name = _need(data, "name", where)
        box = polytope_from_dict(_need(data, "box", where), f"{where}.box")
        try:
            return analytic_from_name(name, box)
        except KeyError as exc:
            raise SchemaError(str(exc)) from exc
    raise SchemaError(f"{where}.type must be 'step' or 'analytic', got {kind!r}")


def atlas_to_dict(atlas: Atlas) -> dict:
    return {
        "charts": [
            {"z": c.center.tolist(), "lambda": c.level,
             "z0": c.anchor.tolist(), "eps": c.radius}
            for c in atlas.charts
        ],
        "region": polytope_to_dict(atlas.region),
        "cover_step": atlas.cover_step,
    }


def atlas_from_dict(data, where="atlas") -> Atlas:
    _reject_non_finite(data, where)
    return _atlas(data, where)


def _atlas(data, where):
    region = polytope_from_dict(_need(data, "region", where), f"{where}.region")
    charts = []
    for i, entry in enumerate(_need_list(data, "charts", where)):
        at = f"{where}.charts[{i}]"
        charts.append(LocalChart(
            center=_point(entry, "z", at, region.dim),
            level=_number(_need(entry, "lambda", at), f"{at}.lambda"),
            anchor=_point(entry, "z0", at, region.dim),
            radius=_positive(entry, "eps", at),
        ))
    return Atlas(tuple(charts), region, _positive(data, "cover_step", where))


def _point(mapping, field, where, dim):
    """A flat list of ``dim`` numbers."""
    point = _numbers(_need(mapping, field, where), f"{where}.{field}")
    if point.size != dim:
        raise SchemaError(f"{where}.{field} has {point.size} coordinates, "
                          f"expected {dim}")
    return point


def _same_dim(dim, want, where, of):
    """Reject ``where``, of dimension ``dim``, unless ``dim`` is ``want``,
    the dimension of ``of``."""
    if dim != want:
        raise SchemaError(f"{where} has dimension {dim}, expected {want} "
                          f"(the dimension of {of})")


def _number(value, where):
    """A JSON number other than a bool, as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SchemaError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        raise SchemaError(f"{where} must be a finite number, got an "
                          "integer too large for a float") from None


def _numbers(value, where, rows=False):
    """A list of numbers, or with ``rows`` a list of equally long lists
    of numbers, as a float array."""
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be a list, got {value!r}")
    if not rows:
        return np.array([_number(v, f"{where}[{i}]")
                         for i, v in enumerate(value)], dtype=float)
    out = [_numbers(row, f"{where}[{i}]") for i, row in enumerate(value)]
    for i, row in enumerate(out):
        if row.size != out[0].size:
            raise SchemaError(f"{where}[{i}] has {row.size} entries, "
                              f"expected {out[0].size}")
    return np.array(out, dtype=float)


# Scalar rules as (kind, rule, test): a value passes when it is a
# ``kind`` other than a bool and ``test`` holds.
_POSITIVE = (numbers.Real, "positive", lambda v: v > 0)
_SOLVER_FIELDS = {
    "starts": (numbers.Integral, "an integer >= 0", lambda v: v >= 0),
    "max_iters": (numbers.Integral, "an integer >= 1", lambda v: v >= 1),
    "mesh_divisions": (numbers.Integral, "an integer >= 1", lambda v: v >= 1),
    "seed": (numbers.Integral, "an integer >= 0", lambda v: v >= 0),
    "gamma": (numbers.Real, "a number in (0, 1]", lambda v: 0 < v <= 1),
    "tol_solve": _POSITIVE,
}
_ATLAS_BUILD_OPTIONAL = {
    "argmin_margin": (numbers.Real, "a number >= 0", lambda v: v >= 0),
    "radius_cap": _POSITIVE,
}


def _checked(mapping, field, where, kind, rule, test):
    value = _need(mapping, field, where)
    if isinstance(value, bool) or not isinstance(value, kind) or not test(value):
        raise SchemaError(f"{where}.{field} must be {rule}, got {value!r}")
    return value


def _positive(mapping, field, where):
    return float(_checked(mapping, field, where, *_POSITIVE))


def _only(data, fields, where):
    unknown = set(data) - set(fields)
    if unknown:
        raise SchemaError(f"unknown field {sorted(unknown)[0]!r} in {where}")


def atlas_build_from_dict(data, where="atlas_build") -> dict:
    """The keyword arguments of ``build_atlas`` after the function."""
    _reject_non_finite(data, where)
    return _atlas_build(data, where)


def _atlas_build(data, where):
    if not isinstance(data, dict):
        raise SchemaError(f"{where} must be an object with 'region' and "
                          "'cover_step'")
    _only(data, {"region", "cover_step", *_ATLAS_BUILD_OPTIONAL}, where)
    spec = {"region": polytope_from_dict(_need(data, "region", where),
                                         f"{where}.region"),
            "cover_step": _positive(data, "cover_step", where)}
    for field, rule in _ATLAS_BUILD_OPTIONAL.items():
        if field in data:
            spec[field] = float(_checked(data, field, where, *rule))
    return spec


def moving_polytope_to_dict(cm: MovingPolytope) -> dict:
    return {"A": cm.a.tolist(), "b": cm.b.tolist(), "D": cm.d.tolist(),
            "box": polytope_to_dict(cm.box)}


def moving_polytope_from_dict(data, where="K") -> MovingPolytope:
    box = polytope_from_dict(_need(data, "box", where), f"{where}.box")
    a = _numbers(_need(data, "A", where), f"{where}.A", rows=True)
    b = _numbers(_need(data, "b", where), f"{where}.b")
    d = _numbers(_need(data, "D", where), f"{where}.D", rows=True)
    try:
        return MovingPolytope(a, b, d, box)
    except ValueError as exc:
        raise SchemaError(f"invalid {where}: {exc}") from exc


def operator_to_dict(op) -> dict:
    if isinstance(op, ConstantOperator):
        return {"kind": "constant", "polytope": polytope_to_dict(op.polytope)}
    if isinstance(op, TabulatedOperator):
        return {"kind": "tabulated", "axis": op.axis,
                "breakpoints": op.breakpoints,
                "polytopes": [polytope_to_dict(p) for p in op.polytopes]}
    raise SchemaError(f"operator {type(op).__name__} has no wire format")


def operator_from_dict(data, where="T"):
    _reject_non_finite(data, where)
    return _operator(data, where)


def _operator(data, where):
    kind = _need(data, "kind", where)
    if kind == "constant":
        return ConstantOperator(
            polytope_from_dict(_need(data, "polytope", where), f"{where}.polytope"))
    if kind == "tabulated":
        axis = _need(data, "axis", where)
        breakpoints = _need_list(data, "breakpoints", where)
        polys = [polytope_from_dict(p, f"{where}.polytopes[{i}]")
                 for i, p in enumerate(_need_list(data, "polytopes", where))]
        try:
            return TabulatedOperator(axis, breakpoints, polys)
        except ValueError as exc:  # the message starts with the field
            raise SchemaError(f"{where}.{exc}") from exc
    if kind == "normal_base":
        # Resolved by the caller: needs the function and atlas context.
        return data
    raise SchemaError(f"{where}.kind must be constant/tabulated/normal_base")


def solver_config_from_dict(data, where="solver") -> SolverConfig:
    _reject_non_finite(data, where)
    return _solver_config(data, where)


def _solver_config(data, where):
    if data is None:
        return SolverConfig()
    if not isinstance(data, dict):
        raise SchemaError(f"{where} must be an object")
    _only(data, _SOLVER_FIELDS, where)
    for field in data:
        _checked(data, field, where, *_SOLVER_FIELDS[field])
    return SolverConfig(**data)


def gqvi_instance_to_dict(instance: GqviInstance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "K": moving_polytope_to_dict(instance.constraint_map),
        "T": operator_to_dict(instance.operator),
        "solver": {
            "starts": instance.config.starts,
            "gamma": instance.config.gamma,
            "max_iters": instance.config.max_iters,
            "mesh_divisions": instance.config.mesh_divisions,
            "seed": instance.config.seed,
            "tol_solve": instance.config.tol_solve,
        },
    }


def gqvi_instance_from_dict(data) -> GqviInstance:
    _reject_non_finite(data, "")
    return _gqvi_instance(data)


def _gqvi_instance(data):
    cm = moving_polytope_from_dict(_need(data, "K", "instance"))
    operator = _operator(_need(data, "T", "instance"), "T")
    if isinstance(operator, dict):
        raise SchemaError("normal_base operators are only valid inside "
                          "quasiopt instances")
    _same_dim(operator.dim, cm.dim, "T", "K")
    config = _solver_config(data.get("solver"), "solver")
    return GqviInstance(cm, operator, config=config)


def _reject_non_finite(value, where):
    """Python's json reads NaN, Infinity and overflowing literals as
    non-finite floats; name the first one by its path in the file (or,
    for a direct call of a parser, in the data it was given)."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SchemaError(f"{where} must be a finite number, got {value!r}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{where}.{key}" if where else key)
    elif isinstance(value, np.ndarray):
        _reject_non_finite(value.tolist(), where)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{where}[{i}]")


def load_instance(path):
    """Load and classify an instance file.

    Returns ``(kind, payload)`` where kind is one of ``function``,
    ``gqvi`` or ``quasiopt``.  Quasiopt payloads keep their parsed pieces
    (function, K, atlas or the ``build_atlas`` arguments of
    atlas_build) for the caller to assemble.
    A NaN or infinite number raises SchemaError naming its field, such
    as ``K.D[0][0]``.
    """
    non_finite = []

    def number(text):
        value = float(text)
        if not math.isfinite(value):
            non_finite.append(text)
        return value

    def constant(text):
        non_finite.append(text)
        return float(text)

    with open(path) as handle:
        try:
            data = json.load(handle, parse_float=number,
                             parse_constant=constant)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("instance file must hold a JSON object")
    if non_finite:  # the walk names the first one by its path
        _reject_non_finite(data, "")
    if "type" in data:
        return "function", {"function": _function(data, "function"), "raw": data}
    if "function" in data:
        f = _function(data["function"], "function")
        payload = {"function": f, "raw": data}
        if "atlas" in data:
            payload["atlas"] = _atlas(data["atlas"], "atlas")
            _same_dim(payload["atlas"].region.dim, f.dim, "atlas.region",
                      "the function")
        if "atlas_build" in data:
            payload["atlas_build"] = _atlas_build(data["atlas_build"],
                                                  "atlas_build")
            _same_dim(payload["atlas_build"]["region"].dim, f.dim,
                      "atlas_build.region", "the function")
        if "K" not in data:
            return "function", payload
        payload["K"] = moving_polytope_from_dict(data["K"])
        _same_dim(payload["K"].dim, f.dim, "K", "the function")
        payload["solver"] = _solver_config(data.get("solver"), "solver")
        return "quasiopt", payload
    if "K" in data and "T" in data:
        return "gqvi", {"instance": _gqvi_instance(data), "raw": data}
    raise SchemaError("unrecognized instance layout: expected 'type', "
                      "'function', or 'K'/'T' fields")


def dump_json(data, path):
    """Deterministic JSON writer (sorted keys, fixed layout)."""
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")

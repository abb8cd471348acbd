"""JSON wire formats (schema_version 1) for instances and reports.

Polytope: ``{"A": [[...]], "b": [...]}`` with an optional ``"V"`` vertex
list.  Functions are either step families or registered analytic names.
Atlases persist their charts with the keys ``z``, ``lambda``, ``z0``,
``eps``.  All numbers are IEEE doubles.
"""

from __future__ import annotations

import json
import math

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
    if field not in mapping:
        raise SchemaError(f"missing field {field!r} in {where}")
    return mapping[field]


def polytope_to_dict(polytope: Polytope) -> dict:
    a, b = polytope.halfspaces
    out = {"A": a.tolist(), "b": b.tolist()}
    if polytope._vertices is not None:
        out["V"] = polytope._vertices.tolist()
    return out


def polytope_from_dict(data, where="polytope") -> Polytope:
    if not isinstance(data, dict):
        raise SchemaError(f"{where} must be an object with 'A' and 'b'")
    a = _need(data, "A", where)
    b = _need(data, "b", where)
    try:
        return Polytope(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                        vertices=data.get("V"))
    except (ValueError, TypeError) as exc:
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


def function_from_dict(data, where="function"):
    kind = _need(data, "type", where)
    if kind == "step":
        levels = _need(data, "levels", where)
        polys = _need(data, "polytopes", where)
        if len(levels) != len(polys):
            raise SchemaError(f"{where}: levels and polytopes lengths differ")
        return StepLevelFunction(
            levels,
            [polytope_from_dict(p, f"{where}.polytopes[{i}]")
             for i, p in enumerate(polys)],
            validate=bool(data.get("validate", True)))
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
    charts = []
    for i, entry in enumerate(_need(data, "charts", where)):
        charts.append(LocalChart(
            center=np.asarray(_need(entry, "z", f"{where}.charts[{i}]"), dtype=float),
            level=float(_need(entry, "lambda", f"{where}.charts[{i}]")),
            anchor=np.asarray(_need(entry, "z0", f"{where}.charts[{i}]"), dtype=float),
            radius=float(_need(entry, "eps", f"{where}.charts[{i}]")),
        ))
    region = polytope_from_dict(_need(data, "region", where), f"{where}.region")
    return Atlas(tuple(charts), region, float(_need(data, "cover_step", where)))


def moving_polytope_to_dict(cm: MovingPolytope) -> dict:
    return {"A": cm.a.tolist(), "b": cm.b.tolist(), "D": cm.d.tolist(),
            "box": polytope_to_dict(cm.box)}


def moving_polytope_from_dict(data, where="K") -> MovingPolytope:
    box = polytope_from_dict(_need(data, "box", where), f"{where}.box")
    try:
        return MovingPolytope(_need(data, "A", where), _need(data, "b", where),
                              _need(data, "D", where), box)
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
    kind = _need(data, "kind", where)
    if kind == "constant":
        return ConstantOperator(
            polytope_from_dict(_need(data, "polytope", where), f"{where}.polytope"))
    if kind == "tabulated":
        return TabulatedOperator(
            _need(data, "axis", where),
            _need(data, "breakpoints", where),
            [polytope_from_dict(p, f"{where}.polytopes[{i}]")
             for i, p in enumerate(_need(data, "polytopes", where))])
    if kind == "normal_base":
        # Resolved by the caller: needs the function and atlas context.
        return data
    raise SchemaError(f"{where}.kind must be constant/tabulated/normal_base")


def solver_config_from_dict(data, where="solver") -> SolverConfig:
    if data is None:
        return SolverConfig()
    known = {"starts", "gamma", "max_iters", "mesh_divisions", "seed", "tol_solve"}
    unknown = set(data) - known
    if unknown:
        raise SchemaError(f"unknown field {sorted(unknown)[0]!r} in {where}")
    return SolverConfig(**{k: data[k] for k in data})


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
    cm = moving_polytope_from_dict(_need(data, "K", "instance"))
    operator = operator_from_dict(_need(data, "T", "instance"))
    if isinstance(operator, dict):
        raise SchemaError("normal_base operators are only valid inside "
                          "quasiopt instances")
    config = solver_config_from_dict(data.get("solver"))
    return GqviInstance(cm, operator, config=config)


def _reject_non_finite(value, where):
    """Python's json reads NaN, Infinity and overflowing literals as
    non-finite floats; name the first one by its path in the file."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SchemaError(f"{where} must be a finite number, got {value!r}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{where}[{i}]")


def load_instance(path):
    """Load and classify an instance file.

    Returns ``(kind, payload)`` where kind is one of ``function``,
    ``gqvi`` or ``quasiopt``.  Quasiopt payloads keep their raw pieces
    (function, K, atlas or atlas_build) for the caller to assemble.
    A NaN or infinite number raises SchemaError naming its field, such
    as ``K.D[0][0]``.
    """
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("instance file must hold a JSON object")
    _reject_non_finite(data, "")
    if "type" in data:
        return "function", {"function": function_from_dict(data), "raw": data}
    if "function" in data and "K" in data:
        payload = {
            "function": function_from_dict(data["function"], "function"),
            "K": moving_polytope_from_dict(data["K"]),
            "raw": data,
        }
        if "atlas" in data:
            payload["atlas"] = atlas_from_dict(data["atlas"])
        if "atlas_build" in data:
            payload["atlas_build"] = data["atlas_build"]
        payload["solver"] = solver_config_from_dict(data.get("solver"))
        return "quasiopt", payload
    if "function" in data:
        payload = {"function": function_from_dict(data["function"], "function"),
                   "raw": data}
        if "atlas" in data:
            payload["atlas"] = atlas_from_dict(data["atlas"])
        if "atlas_build" in data:
            payload["atlas_build"] = data["atlas_build"]
        return "function", payload
    if "K" in data and "T" in data:
        return "gqvi", {"instance": gqvi_instance_from_dict(data), "raw": data}
    raise SchemaError("unrecognized instance layout: expected 'type', "
                      "'function', or 'K'/'T' fields")


def dump_json(data, path):
    """Deterministic JSON writer (sorted keys, fixed layout)."""
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")

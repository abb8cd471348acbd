"""Batch front-end: load instances, run checks, probes and solvers, and
emit machine-readable reports.

Every run writes ``report.json`` (deterministic for a fixed config and
seed), ``manifest.json`` (timestamps, effective configuration, instance
hash, run counters such as the command's LP cache counts) and any CSV
data series into the output directory.  Exit codes: 0 pass/solved, 2
fail/residual_floor (report still written), 1 input errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, lp
from .geometry import GeometryError, Polytope, _check_grid
from .gqvi import (
    ConstantOperator,
    GqviInstance,
    InstanceError,
    hypothesis_report,
    solve as gqvi_solve,
)
from .normal_op import (
    adjusted_normal_cone,
    build_atlas,
    closedness_probe,
    global_base,
    quasimonotonicity_probe,
    strict_normal_cone,
    usc_probe,
)
from .quasiconvex import (
    AdjustedAnchor,
    ArgminError,
    DomainError,
    SamplingPlan,
    StepLevelFunction,
    adjusted_convexity_check,
    quasiconvexity_check,
)
from .quasiopt import QuasioptInstance, solve_quasiopt
from .serialization import (
    SCHEMA_VERSION,
    SchemaError,
    atlas_to_dict,
    load_instance,
)

_COMMANDS = (
    "check-quasiconvex", "adjusted-set", "normal-cone", "build-atlas",
    "base-map", "usc-probe", "closedness-probe", "quasimono-probe",
    "solve-gqvi", "solve-quasiopt", "verify",
)


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="adjcone",
        description="Adjusted sublevel sets, normal cone base maps, and "
                    "quasivariational inequalities over exact polyhedra.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--instance", required=True, help="instance JSON file")
    parser.add_argument("--out", default="adjcone_out", help="output directory")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tol", type=float, default=None,
                        help="override the primary tolerance of the command")
    parser.add_argument("--mesh", type=float, default=None,
                        help="grid mesh / cover step override")
    parser.add_argument("--radii", type=str, default=None,
                        help="comma-separated radius ladder for probes")
    parser.add_argument("--at", type=str, default=None,
                        help="probe point, comma-separated coordinates")
    parser.add_argument("--trace", action="store_true",
                        help="emit iterate trace CSV for solvers")
    return parser


def _atomic_write(path, writer):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".adjcone-tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            writer(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, data):
    import json

    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _atomic_write(path, lambda handle: handle.write(text))


def _write_csv(path, header, rows):
    def do(handle):
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)

    _atomic_write(path, do)


def _instance_hash(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _floats(flag, text):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise SchemaError(f"{flag} takes comma-separated numbers, "
                          f"got {text!r}") from None


def _check_flags(args):
    """Every --at coordinate is finite; --tol, --mesh and every --radii
    entry are finite and positive; --seed is non-negative."""
    if args.seed < 0:
        raise SchemaError(f"--seed must be an integer >= 0, got {args.seed}")
    positive = [("--tol", args.tol), ("--mesh", args.mesh)]
    if args.radii is not None:
        positive += [("--radii", r) for r in _floats("--radii", args.radii)]
    for flag, value in positive:
        if value is not None and not (math.isfinite(value) and value > 0):
            raise SchemaError(f"{flag} must be a finite number > 0, got {value!r}")
    if args.at is not None:
        for value in _floats("--at", args.at):
            if not math.isfinite(value):
                raise SchemaError(f"--at must be finite, got {value!r}")


def _parse_point(text, dim=None):
    if text is None:
        raise SchemaError("this command requires --at <coords>")
    point = np.array(_floats("--at", text), dtype=float)
    if dim is not None and point.size != dim:
        raise SchemaError(f"--at has {point.size} coordinates, expected {dim}")
    return point


def _parse_radii(text):
    if text is None:
        return (1e-1, 1e-2, 1e-3, 1e-4)
    return _floats("--radii", text)


def _sanitize(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _resolve_atlas(payload, f, args, at=None, radii=(1e-1,)):
    """Atlas from the instance, its build parameters, or a local default."""
    if "atlas" in payload:
        return payload["atlas"]
    if not isinstance(f, StepLevelFunction):
        raise SchemaError("atlas-based commands need a step function instance")
    if "atlas_build" in payload:
        return build_atlas(f, **payload["atlas_build"])
    if at is None:
        raise SchemaError("no atlas in the instance and no --at point to "
                          "build a local one around")
    cover = args.mesh if args.mesh else 0.1
    lo, hi = f.domain.bounding_box()
    # Symmetric region centered on the probe point, its half-widths whole
    # cover steps: the chart grid then contains the point itself.  The
    # radius cap (0.75 of a step) keeps every grid chart a step or more
    # away at zero on the point, so there only its own chart and charts
    # that densification adds within 0.75 of a step are active.  It does
    # not make the base map one section on the probe ball: neighbouring
    # charts reach within a quarter step of the point, so probe verdicts
    # can depend on --mesh.
    half = np.minimum(np.minimum(at - lo, hi - at),
                      max(radii) + 2 * cover)
    if np.any(half <= cover / 2):
        raise SchemaError("--at is too close to the domain boundary for a "
                          "default local atlas; supply one in the instance")
    half = np.floor(half / cover + 1e-12) * cover
    region = Polytope.from_box(at - half, at + half)
    return build_atlas(f, region, cover, radius_cap=0.75 * cover)


# -- command implementations -------------------------------------------------


def _cmd_check_quasiconvex(kind, payload, args, out_dir):
    f = payload["function"]
    plan = SamplingPlan(points=1000, pairs=100, seed=args.seed)
    verdict_qc = quasiconvexity_check(f, plan)
    verdict_adj = adjusted_convexity_check(f, plan)
    report = {
        "quasiconvexity": verdict_qc.to_dict(),
        "adjusted_convexity": verdict_adj.to_dict(),
        "agree": verdict_qc.passed == verdict_adj.passed,
    }
    code = 0 if (verdict_qc.passed and verdict_adj.passed) else 2
    return code, report, {}


def _cmd_adjusted_set(kind, payload, args, out_dir):
    f = payload["function"]
    if not isinstance(f, StepLevelFunction):
        raise SchemaError("adjusted-set needs a step function instance")
    at = _parse_point(args.at, f.dim)
    anchor = AdjustedAnchor(f, at)
    value = anchor.value
    if math.isinf(value):
        raise SchemaError("--at lies outside the domain")
    sub = f.sublevel(value).polytope
    lo, hi = sub.bounding_box()
    pad = 0.05 * max(float(np.max(hi - lo)), 1.0)
    lo, hi = lo - pad, hi + pad
    mesh = args.mesh if args.mesh else float(np.max(hi - lo)) / 200.0
    # The lengths np.arange gives the axes, counted before any is built.
    spans = [(h + mesh / 2 - l) / mesh for l, h in zip(lo.tolist(), hi.tolist())]
    _check_grid([math.ceil(s) if math.isfinite(s) else s for s in spans], mesh)
    axes = [np.arange(lo[k], hi[k] + mesh / 2, mesh) for k in range(f.dim)]
    labels = [[repr(v) for v in axis.tolist()] for axis in axes]  # as csv writes
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    shape = grid.shape[:-1]
    flat = grid.reshape(-1, f.dim)

    def boundary(mask):
        # Members with a neighbour outside along some axis.
        mask = mask.reshape(shape)
        edge = np.zeros_like(mask)
        for axis in range(mask.ndim):
            m, e = np.moveaxis(mask, axis, 0), np.moveaxis(edge, axis, 0)
            inner = m[1:] != m[:-1]
            e[:-1] |= inner
            e[1:] |= inner
        return np.argwhere(mask & edge).tolist()  # grid indices, flat order

    strict_handle = f.strict_sublevel(value)
    rows = []
    sets = {"sublevel": sub.contains_many(flat)}
    if not strict_handle.is_empty:
        sets["strict_sublevel"] = strict_handle.polytope.contains_many(flat)
    sets["adjusted"] = anchor.contains_many(flat)
    for name, mask in sets.items():
        for index in boundary(mask):
            rows.append([name] + [labels[k][i] for k, i in enumerate(index)])
    report = {
        "at": at.tolist(),
        "f_value": value,
        "rho": None if anchor.in_argmin else anchor.rho,
        "boundary_points": len(rows),
        "mesh": mesh,
    }
    return 0, report, {"boundary": (["set"] + [f"x{k}" for k in range(f.dim)], rows)}


def _cmd_normal_cone(kind, payload, args, out_dir):
    f = payload["function"]
    if not isinstance(f, StepLevelFunction):
        raise SchemaError("normal-cone needs a step function instance")
    at = _parse_point(args.at, f.dim)
    adjusted = adjusted_normal_cone(f, at)
    report = {"at": at.tolist(),
              "adjusted_generators": adjusted.generators.tolist()}
    try:
        strict = strict_normal_cone(f, at)
        report["strict_generators"] = strict.generators.tolist()
    except (ArgminError, DomainError) as exc:
        report["strict_generators"] = None
        report["strict_note"] = str(exc)
    return 0, report, {}


def _cmd_build_atlas(kind, payload, args, out_dir):
    f = payload["function"]
    atlas = _resolve_atlas(payload, f, args,
                           at=_parse_point(args.at, f.dim) if args.at else None)
    report = {
        "charts": len(atlas.charts),
        "grid_points": len(atlas.verification_grid()),
        "partition_defect": atlas.partition_defect(),
        "atlas": atlas_to_dict(atlas),
    }
    _write_json(os.path.join(out_dir, "atlas.json"),
                _sanitize({"schema_version": SCHEMA_VERSION,
                           **atlas_to_dict(atlas)}))
    return 0, report, {}


def _cmd_base_map(kind, payload, args, out_dir):
    f = payload["function"]
    at = _parse_point(args.at, f.dim)
    atlas = _resolve_atlas(payload, f, args, at=at)
    result = global_base(atlas, f, at)
    report = {"at": at.tolist(), **result.to_dict()}
    rows = [[float(v) for v in vertex] for vertex in result.base.vertices()]
    return 0, report, {"base_vertices": ([f"v{k}" for k in range(f.dim)], rows)}


def _cmd_usc_probe(kind, payload, args, out_dir):
    f = payload["function"]
    at = _parse_point(args.at, f.dim)
    radii = _parse_radii(args.radii)
    atlas = _resolve_atlas(payload, f, args, at=at, radii=radii)
    tol = args.tol if args.tol else 1e-6
    probe = usc_probe(lambda x: global_base(atlas, f, x), at, radii=radii,
                      seed=args.seed, tol_probe=tol)
    report = probe.to_dict()
    rows = [[r, d] for r, d in probe.rows()]
    return (0 if probe.passed else 2), report, {"deviation": (["radius", "deviation"], rows)}


def _cmd_closedness_probe(kind, payload, args, out_dir):
    f = payload["function"]
    at = _parse_point(args.at, f.dim)
    verdict = closedness_probe(f, at, seed=args.seed)
    return (0 if verdict.passed else 2), verdict.to_dict(), {}


def _cmd_quasimono_probe(kind, payload, args, out_dir):
    f = payload["function"]
    verdict = quasimonotonicity_probe(f, pair_samples=1000, seed=args.seed)
    return (0 if verdict.passed else 2), verdict.to_dict(), {}


def _cmd_solve_gqvi(kind, payload, args, out_dir):
    if kind != "gqvi":
        raise SchemaError("solve-gqvi needs a GQVI instance file")
    instance = payload["instance"]
    if args.tol is not None:
        from dataclasses import replace
        instance.config = replace(instance.config, tol_solve=args.tol)
    report_obj = gqvi_solve(instance, collect_trace=args.trace)
    report = report_obj.to_dict()
    series = {}
    if args.trace and report_obj.trace:
        rows = [[s, *map(float, x), v] for s, x, v in report_obj.trace]
        dim = instance.constraint_map.dim
        series["trace"] = (["start", *(f"x{k}" for k in range(dim)), "residual"], rows)
    return (0 if report_obj.status == "solved" else 2), report, series, report_obj.stats


def _cmd_solve_quasiopt(kind, payload, args, out_dir):
    if kind != "quasiopt":
        raise SchemaError("solve-quasiopt needs a quasiopt instance file")
    f = payload["function"]
    atlas = _resolve_atlas(payload, f, args)
    instance = QuasioptInstance(f, payload["K"], atlas,
                                config=payload["solver"])
    if args.tol is not None:
        instance.tol_opt = args.tol
    result = solve_quasiopt(instance)
    report = result.to_dict()
    code = 0 if result.verified else 2
    return code, report, {}, result.gqvi.stats


def _cmd_verify(kind, payload, args, out_dir):
    if kind == "gqvi":
        report = hypothesis_report(payload["instance"], seed=args.seed)
        return (0 if report["all_passed"] else 2), _sanitize(report), {}
    if kind == "quasiopt":
        f = payload["function"]
        cm = payload["K"]
        probe_op = ConstantOperator(
            Polytope.from_box(-np.ones(cm.dim), np.ones(cm.dim)))
        report = hypothesis_report(GqviInstance(cm, probe_op), seed=args.seed)
        try:
            atlas = _resolve_atlas(payload, f, args)
            report["atlas_charts"] = len(atlas.charts)
        except (SchemaError, GeometryError) as exc:
            report["atlas_charts"] = None
            report["atlas_note"] = str(exc)
            report["all_passed"] = False
        return (0 if report["all_passed"] else 2), _sanitize(report), {}
    f = payload["function"]
    info = {"kind": type(f).__name__, "dim": f.dim}
    if isinstance(f, StepLevelFunction):
        info["levels"] = list(f.levels)
        info["full_dimensional_levels"] = f.has_full_dimensional_levels
        plan = SamplingPlan(points=400, pairs=50, seed=args.seed)
        info["quasiconvexity"] = quasiconvexity_check(f, plan).to_dict()
        info["passed"] = info["quasiconvexity"]["passed"]
    else:
        info["advertised_quasiconvex"] = f.advertised_quasiconvex
        plan = SamplingPlan(points=600, pairs=50, seed=args.seed)
        verdict = quasiconvexity_check(f, plan)
        info["quasiconvexity"] = verdict.to_dict()
        info["passed"] = verdict.passed == f.advertised_quasiconvex
    return (0 if info["passed"] else 2), info, {}


_DISPATCH = {
    "check-quasiconvex": _cmd_check_quasiconvex,
    "adjusted-set": _cmd_adjusted_set,
    "normal-cone": _cmd_normal_cone,
    "build-atlas": _cmd_build_atlas,
    "base-map": _cmd_base_map,
    "usc-probe": _cmd_usc_probe,
    "closedness-probe": _cmd_closedness_probe,
    "quasimono-probe": _cmd_quasimono_probe,
    "solve-gqvi": _cmd_solve_gqvi,
    "solve-quasiopt": _cmd_solve_quasiopt,
    "verify": _cmd_verify,
}


_VALUE_OPTIONS = ("--at", "--radii")


def _join_values(argv):
    """``--at -1.2,0.3`` as ``--at=-1.2,0.3``: argparse would otherwise
    read a comma-separated value starting with ``-`` as an option."""
    out = []
    args = iter(argv)
    for arg in args:
        if arg in _VALUE_OPTIONS:
            value = next(args, None)
            out.append(arg if value is None else f"{arg}={value}")
        else:
            out.append(arg)
    return out


def run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(_join_values(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    started = time.time()
    lp.clear_cache()  # a command's work never depends on an earlier one
    try:
        _check_flags(args)
        kind, payload = load_instance(args.instance)
        code, report, series, *stats = _DISPATCH[args.command](
            kind, payload, args, out_dir)
    except (SchemaError, FileNotFoundError, ValueError, GeometryError,
            DomainError, ArgminError, InstanceError) as exc:
        sys.stderr.write(f"adjcone: {exc}\n")
        return 1

    report_doc = _sanitize({
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "instance_hash": _instance_hash(args.instance),
        "seed": args.seed,
        "report": report,
    })
    _write_json(os.path.join(out_dir, "report.json"), report_doc)
    for name, (header, rows) in series.items():
        _write_csv(os.path.join(out_dir, f"{name}.csv"), header, rows)
    manifest = _sanitize({
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "instance": os.path.abspath(args.instance),
        "instance_hash": report_doc["instance_hash"],
        "config": {
            "seed": args.seed, "tol": args.tol, "mesh": args.mesh,
            "radii": args.radii, "at": args.at, "trace": args.trace,
            "out": os.path.abspath(out_dir),
        },
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "wall_time": time.time() - started,
        "exit_code": code,
        "lp": lp.cache_counts(),
        **({"stats": stats[0]} if stats else {}),
    })
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import adjcone
from adjcone import cli, geometry, lp
from adjcone.cli import run
from adjcone.geometry import Polytope
from adjcone.gqvi import ConstantOperator, GqviInstance, MovingPolytope
from adjcone.quasiconvex import StepLevelFunction
from adjcone.serialization import (
    dump_json,
    function_to_dict,
    gqvi_instance_to_dict,
    moving_polytope_to_dict,
    polytope_to_dict,
)
from helpers import DIMENSION_IDS, DIMENSION_MISMATCHES, STEP_3D, STEP_4D


@pytest.fixture(scope="module")
def files(tmp_path_factory, step1d, sq2d):
    root = tmp_path_factory.mktemp("instances")
    paths = {}

    dump_json({"schema_version": 1, **function_to_dict(step1d)},
              root / "step1d.json")
    paths["step1d"] = root / "step1d.json"

    dump_json({"schema_version": 1, **function_to_dict(sq2d)},
              root / "sq2d.json")
    paths["sq2d"] = root / "sq2d.json"

    dump_json({"schema_version": 1, "type": "analytic", "name": "two_wells",
               "box": polytope_to_dict(Polytope.from_box([-2.0], [2.0]))},
              root / "two_wells.json")
    paths["two_wells"] = root / "two_wells.json"

    box = Polytope.from_box([-2.0], [2.0])
    cm = MovingPolytope(a=[[1.0], [-1.0]], b=[1.0, 1.0],
                        d=[[0.5], [-0.5]], box=box)
    dump_json(gqvi_instance_to_dict(
        GqviInstance(cm, ConstantOperator(Polytope.from_vertices([[1.0]])))),
        root / "moving_interval.json")
    paths["gqvi"] = root / "moving_interval.json"

    window = MovingPolytope(a=[[1.0], [-1.0]], b=[0.5, 0.5],
                            d=[[1.0], [-1.0]],
                            box=Polytope.from_box([-1.0], [2.0]))
    dump_json({
        "schema_version": 1,
        "function": function_to_dict(step1d),
        "K": moving_polytope_to_dict(window),
        "atlas_build": {
            "region": polytope_to_dict(Polytope.from_box([0.25], [1.75])),
            "cover_step": 0.25, "argmin_margin": 0.25},
        "solver": {"seed": 42},
    }, root / "quasiopt.json")
    paths["quasiopt"] = root / "quasiopt.json"
    return paths


SHIPPED = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


def report_of(out_dir):
    with open(os.path.join(out_dir, "report.json")) as handle:
        return json.load(handle)


def test_check_quasiconvex_witness(files, tmp_path):
    out = tmp_path / "o"
    code = run(["check-quasiconvex", "--instance", str(files["two_wells"]),
                "--out", str(out)])
    assert code == 2
    report = report_of(out)["report"]
    assert not report["quasiconvexity"]["passed"]
    assert "witness" in report["quasiconvexity"]
    assert report["agree"]


def test_check_quasiconvex_step_passes(files, tmp_path):
    out = tmp_path / "o"
    code = run(["check-quasiconvex", "--instance", str(files["step1d"]),
                "--out", str(out)])
    assert code == 0


def test_solve_gqvi_hand_instance(files, tmp_path):
    out = tmp_path / "o"
    code = run(["solve-gqvi", "--instance", str(files["gqvi"]),
                "--out", str(out), "--trace"])
    assert code == 0
    report = report_of(out)["report"]
    assert report["x"] == pytest.approx([-2.0], abs=1e-7)
    assert report["status"] == "solved"
    assert os.path.exists(out / "trace.csv")
    # timing stays out of the deterministic report
    assert "wall_time" not in report


def test_usc_probe_exit_and_series(files, tmp_path):
    out = tmp_path / "o"
    code = run(["usc-probe", "--instance", str(files["step1d"]),
                "--at", "0.5", "--out", str(out)])
    assert code == 0
    rows = (out / "deviation.csv").read_text().strip().splitlines()
    assert rows[0] == "radius,deviation"
    devs = [float(line.split(",")[1]) for line in rows[1:]]
    assert all(a >= b - 1e-15 for a, b in zip(devs, devs[1:]))


def test_solve_quasiopt(files, tmp_path):
    out = tmp_path / "o"
    code = run(["solve-quasiopt", "--instance", str(files["quasiopt"]),
                "--out", str(out)])
    assert code == 0
    report = report_of(out)["report"]
    assert report["verified"]


def test_normal_cone_report(files, tmp_path):
    out = tmp_path / "o"
    code = run(["normal-cone", "--instance", str(files["sq2d"]),
                "--at", "2,2", "--out", str(out)])
    assert code == 0
    report = report_of(out)["report"]
    gens = sorted(map(tuple, np.round(report["adjusted_generators"], 9)))
    assert gens == [(0.0, 1.0), (1.0, 0.0)]


def test_adjusted_set_emits_boundaries(files, tmp_path):
    out = tmp_path / "o"
    code = run(["adjusted-set", "--instance", str(files["sq2d"]),
                "--at", "2,2", "--out", str(out)])
    assert code == 0
    rows = (out / "boundary.csv").read_text().strip().splitlines()
    names = {line.split(",")[0] for line in rows[1:]}
    assert {"sublevel", "strict_sublevel", "adjusted"} <= names


def test_build_atlas_and_base_map(files, tmp_path):
    out = tmp_path / "a"
    code = run(["build-atlas", "--instance", str(files["step1d"]),
                "--at", "0.5", "--out", str(out)])
    assert code == 0
    assert os.path.exists(out / "atlas.json")
    report = report_of(out)["report"]
    assert report["partition_defect"] <= 1e-12

    out2 = tmp_path / "b"
    code = run(["base-map", "--instance", str(files["step1d"]),
                "--at", "0.5", "--out", str(out2)])
    assert code == 0
    assert os.path.exists(out2 / "base_vertices.csv")


def test_probe_commands(files, tmp_path):
    for command, extra in [("closedness-probe", ["--at", "1.0"]),
                           ("quasimono-probe", [])]:
        out = tmp_path / command
        code = run([command, "--instance", str(files["step1d"]),
                    "--out", str(out), *extra])
        assert code == 0, command
        assert report_of(out)["report"]["passed"]


def test_verify_gqvi(files, tmp_path):
    out = tmp_path / "o"
    code = run(["verify", "--instance", str(files["gqvi"]), "--out", str(out)])
    assert code == 0
    assert report_of(out)["report"]["all_passed"]


def test_determinism_byte_identical(files, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run(["solve-gqvi", "--instance", str(files["gqvi"]),
                    "--out", str(out), "--seed", "7"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_reports_embed_instance_hash(files, tmp_path):
    out = tmp_path / "o"
    run(["solve-gqvi", "--instance", str(files["gqvi"]), "--out", str(out)])
    doc = report_of(out)
    assert len(doc["instance_hash"]) == 64
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["instance_hash"] == doc["instance_hash"]
    assert "timestamp" in manifest
    assert "ADJCONE_THREADS" not in json.dumps(manifest)  # read by nothing


SOLVER_STATS = {"minimax_lps", "replayed", "solved", "nodes", "warm",
                "warm_declined", "affine_tried", "affine_kept", "abandoned"}


def test_solve_gqvi_writes_memo_stats_to_manifest(tmp_path):
    # Every minimax LP is replayed, solved, or answered warm from the
    # basis of the one before it; on the moving interval all but the
    # first are answered warm, none declines, and every jump to the
    # damped limit is kept.  The counts go to the manifest, never to the
    # report.
    out = tmp_path / "o"
    assert run(["solve-gqvi", "--instance",
                os.path.join(SHIPPED, "moving_interval.json"),
                "--out", str(out)]) == 0
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    assert set(stats) == SOLVER_STATS
    assert (stats["replayed"] + stats["solved"] + stats["warm"]
            == stats["minimax_lps"])
    assert stats["minimax_lps"] == report_of(out)["report"]["iterations"]
    assert stats["solved"] == 1 and stats["warm"] == stats["minimax_lps"] - 1
    assert stats["warm_declined"] == {}
    assert stats["affine_kept"] == stats["affine_tried"] > 0
    assert stats["abandoned"] == {}
    assert "stats" not in (out / "report.json").read_text()


@pytest.mark.parametrize("name, command, lp_counts, stats", [
    ("moving_interval", "solve-gqvi",
     {"calls": 3, "replayed": 0, "solved": 3, "nodes": 4},
     {"minimax_lps": 31, "replayed": 0, "solved": 1, "nodes": 0, "warm": 30,
      "warm_declined": {}, "affine_tried": 10, "affine_kept": 10}),
    ("quasiopt_window1d", "solve-quasiopt",
     {"calls": 66, "replayed": 23, "solved": 43, "nodes": 22},
     {"minimax_lps": 52, "replayed": 10, "solved": 38, "nodes": 13, "warm": 4,
      "warm_declined": {}, "affine_tried": 0, "affine_kept": 0}),
])
def test_solver_manifest_counts_pinned(name, command, lp_counts, stats,
                                       tmp_path):
    # The LP and solver counts of the shipped solves.  A program whose
    # replay leaves the recorded paths is solved from scratch, counts as
    # solved, and records only the states no program recorded before.  A
    # minimax LP answered warm makes no solve_lp call.  A sum of certified
    # chart sections runs no cone check; on the window those checks were
    # 52 replayed LPs.  Chebyshev centres are computed on first use: the
    # window's innermost level never needs its centre, which was one
    # replayed LP at load.
    out = tmp_path / "o"
    assert run_shipped(command, name, None, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["lp"] == lp_counts
    assert manifest["stats"] == {**stats, "abandoned": {}}


def _square(half):
    return {"A": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            "b": [half] * 4}


def test_solve_quasiopt_writes_solver_stats_to_manifest(tmp_path):
    # The reduction's solver counts go to the manifest as solve-gqvi's do.
    # Off the argmin of nested squares, with charts 0.0625 apart, two
    # branches end in the 1e5 bound of the Minkowski vertex product; the
    # solve still verifies, and only the manifest says so.
    window = tmp_path / "o1"
    assert run(["solve-quasiopt", "--instance",
                os.path.join(SHIPPED, "quasiopt_window1d.json"),
                "--out", str(window)]) == 0
    stats = json.loads((window / "manifest.json").read_text())["stats"]
    assert set(stats) == SOLVER_STATS
    assert stats["minimax_lps"] == (
        report_of(window)["report"]["gqvi"]["iterations"])
    assert stats["abandoned"] == {}
    instance = tmp_path / "offargmin2d.json"
    dump_json({"schema_version": 1,
               "function": {"type": "step", "levels": [0.0, 1.0, 2.0],
                            "polytopes": [_square(h) for h in (0.5, 1.0, 2.0)]},
               "K": {"A": [[-1.0, 0.0]], "b": [-1.0], "D": [[0.0, 0.0]],
                     "box": _square(2.0)},
               "atlas_build": {"region": {**_square(2.0),
                                          "b": [2.0, 2.0, -0.75, 2.0]},
                               "cover_step": 0.0625, "argmin_margin": 0.25},
               "solver": {"seed": 42}}, instance)
    out = tmp_path / "o2"
    assert run(["solve-quasiopt", "--instance", str(instance),
                "--out", str(out)]) == 0
    assert report_of(out)["report"]["verified"] is True
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    assert stats["abandoned"] == {"ScaleBoundError": 2}
    assert "abandoned" not in (out / "report.json").read_text()


SHIPPED_COMMANDS = [
    ("check-quasiconvex", "two_wells", None),
    ("adjusted-set", "step1d", "0.5"),
    ("normal-cone", "sq2d", "2,2"),
    ("build-atlas", "step1d", "0.5"),
    ("base-map", "sq2d", "1.5,0.5"),
    ("usc-probe", "sq2d", "1.5,0.5"),
    ("closedness-probe", "step1d", "0.5"),
    ("quasimono-probe", "sq2d", None),
    ("solve-gqvi", "moving_interval", None),
    ("solve-quasiopt", "quasiopt_window1d", None),
    ("verify", "quasiopt_window1d", None),
]


def run_shipped(command, name, at, out):
    extra = [f"--at={at}"] if at is not None else []
    return run([command, "--instance", os.path.join(SHIPPED, f"{name}.json"),
                *extra, "--out", str(out)])


@pytest.mark.parametrize("command, name, at", SHIPPED_COMMANDS,
                         ids=[command for command, _, _ in SHIPPED_COMMANDS])
def test_every_command_writes_lp_counts_to_manifest(command, name, at,
                                                    tmp_path):
    # The LP cache counts of this command alone go to the manifest, never
    # to the report.
    out = tmp_path / "o"
    assert run_shipped(command, name, at, out) in (0, 2)
    counts = json.loads((out / "manifest.json").read_text())["lp"]
    assert set(counts) == {"calls", "replayed", "solved", "nodes"}
    assert counts["calls"] == counts["replayed"] + counts["solved"]
    assert counts == lp.cache_counts()
    assert '"lp"' not in (out / "report.json").read_text()


@pytest.mark.parametrize("command, name, at", [
    ("usc-probe", "sq2d", "1.5,0.5"), ("solve-gqvi", "moving_interval", None),
    ("solve-quasiopt", "quasiopt_window1d", None)])
def test_lp_cache_lives_one_command(command, name, at, tmp_path):
    # The cache is cleared when a command starts: the same command twice
    # in one process gives the same report bytes and the same counts,
    # though the second could have replayed every LP of the first.
    runs = []
    for out in (tmp_path / "r1", tmp_path / "r2"):
        assert run_shipped(command, name, at, out) == 0
        runs.append(((out / "report.json").read_bytes(),
                     json.loads((out / "manifest.json").read_text())["lp"]))
    assert runs[0] == runs[1]
    counts = runs[0][1]
    assert 0 < counts["solved"] and 0 < counts["nodes"]
    # solve-gqvi answers all but its first minimax LP warm, so of its
    # LPs only the recheck reaches the memo, and none is replayed.
    if command != "solve-gqvi":
        assert 0 < counts["replayed"] and counts["solved"] < counts["calls"]


def test_malformed_instance_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "step", "levels": [0.0]}))
    code = run(["check-quasiconvex", "--instance", str(bad),
                "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "polytopes" in err


@pytest.mark.parametrize("command, name, k", [
    ("solve-gqvi", "moving_interval",
     {"A": [[1.0], [-1.0]], "D": [[1.0], [-0.5]], "b": [-1.0, 1.0]}),
    ("solve-quasiopt", "quasiopt_window1d",
     {"D": [[1.0], [-1.0]], "b": [-1.0, 0.5]}),
], ids=["solve-gqvi", "solve-quasiopt"])
def test_no_fixed_point_exits_1(command, name, k, tmp_path, capsys):
    # fix K = {x : (A - D) x <= b} ∩ box is empty.  Uncaught, the solver's
    # InstanceError ended the command in a traceback.
    with open(os.path.join(SHIPPED, f"{name}.json")) as fh:
        doc = json.load(fh)
    doc["K"].update(k)
    path = tmp_path / "empty_fix.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run([command, "--instance", str(path), "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == "adjcone: the constraint map has no fixed points\n")
    assert not (out / "report.json").exists()


def test_missing_file_exits_1(tmp_path):
    code = run(["check-quasiconvex", "--instance", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "o")])
    assert code == 1


def test_bad_usage_exits_1(capsys):
    assert run(["not-a-command", "--instance", "x.json"]) == 1


def test_one_parser_serves_every_run(files, tmp_path, capsys):
    # The parser is built once per process; a usage error, --help and a
    # joined negative --at leave it as they found it.
    assert cli._parser() is cli._parser()
    assert run(["not-a-command", "--instance", "x.json"]) == 1
    assert run(["--help"]) == 0
    assert run(["normal-cone", "--instance", str(files["sq2d"]),
                "--out", str(tmp_path / "o0")]) == 1
    assert "requires --at" in capsys.readouterr().err
    reports = []
    for out in (tmp_path / "o1", tmp_path / "o2"):
        assert run(["normal-cone", "--instance", str(files["sq2d"]),
                    "--at", "-2,2", "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["at"] == "-2,2"
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_verify_function_instances(files, tmp_path):
    out = tmp_path / "vf"
    code = run(["verify", "--instance", str(files["step1d"]), "--out", str(out)])
    assert code == 0
    report = report_of(out)["report"]
    assert report["passed"] and report["full_dimensional_levels"]

    out2 = tmp_path / "va"
    code = run(["verify", "--instance", str(files["two_wells"]), "--out", str(out2)])
    assert code == 0  # fails quasiconvexity, which matches its advertisement
    report = report_of(out2)["report"]
    assert report["passed"] and not report["quasiconvexity"]["passed"]


def test_verify_quasiopt_bundle(files, tmp_path):
    out = tmp_path / "vq"
    code = run(["verify", "--instance", str(files["quasiopt"]), "--out", str(out)])
    assert code == 0
    report = report_of(out)["report"]
    assert report["all_passed"]
    assert report["atlas_charts"] >= 1


def test_tol_override_solve_gqvi(files, tmp_path):
    out = tmp_path / "t"
    code = run(["solve-gqvi", "--instance", str(files["gqvi"]),
                "--out", str(out), "--tol", "1e-4"])
    assert code == 0


def test_adjusted_set_1d(files, tmp_path):
    out = tmp_path / "adj1"
    code = run(["adjusted-set", "--instance", str(files["step1d"]),
                "--at", "0.5", "--out", str(out)])
    assert code == 0
    report = report_of(out)["report"]
    assert report["rho"] == pytest.approx(0.5)
    rows = (out / "boundary.csv").read_text().strip().splitlines()
    # the adjusted interval [-1, 0.5] must contribute a boundary point near 0.5
    adjusted = [float(r.split(",")[1]) for r in rows[1:]
                if r.startswith("adjusted")]
    assert adjusted and min(abs(v - 0.5) for v in adjusted) < 0.05


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of (report.json, boundary.csv), recorded from the point-by-point
# membership loop that the batched mesh replaced.
ADJUSTED_SET_DIGESTS = {
    ("sq2d", "2,2"): (
        "b9a8e1c6905af8ad74420c7b2b058eee70491d578cb6010f373e75a4cf832d60",
        "6a658c69756274cec1f5c97366eaa8f58b60f4a5aa5c44285019689311cde078"),
    ("sq2d", "1.5,0.5"): (
        "92c2ab60622b1726d0e481b6e61dcc954648261b7890174e5c26eda3a9cb3422",
        "87684fd1333ef717103b85f1c127b02788246467afc1c366a1b42256bb1a2f95"),
    ("sq2d", "-1.5,-1.5"): (
        "08e40c771c1a7f8ca4a430858398112b88b8edd79f17a5682ca9bc06459e80b5",
        "088dcbe06e757f89de8cad9031a4271b047b6f2ece82881d507408c7e08bd146"),
    ("step1d", "0.5"): (
        "e7b7defca30b7f23c1966b41f22af0545ac0ab309436656e402447bab56e78cd",
        "9e58fa20fdf845d4cc751e37d299a4858291420201c92b4c612719aad36d12e0"),
}


@pytest.mark.parametrize("name, at", sorted(ADJUSTED_SET_DIGESTS))
def test_adjusted_set_outputs_pinned(name, at, tmp_path):
    out = tmp_path / "o"
    code = run(["adjusted-set", "--instance",
                os.path.join(SHIPPED, f"{name}.json"), f"--at={at}",
                "--out", str(out)])
    assert code == 0
    assert (sha256_of(out / "report.json"),
            sha256_of(out / "boundary.csv")) == ADJUSTED_SET_DIGESTS[name, at]


def _box_rows(lo, hi):
    n = len(lo)
    return {"A": [[1.0 if j == k else 0.0 for j in range(n)] for k in range(n)]
                 + [[-1.0 if j == k else 0.0 for j in range(n)]
                    for k in range(n)],
            "b": list(hi) + [-v for v in lo]}


# A nested family of exact axis boxes in 3-D, off-centre on every axis.
BOX_3D = {"schema_version": 1, "type": "step", "levels": [0.0, 1.0, 2.0],
          "polytopes": [_box_rows([-1.0, -0.5, -0.25], [1.0, 1.0, 0.75]),
                        _box_rows([-2.0, -1.0, -1.0], [1.5, 2.0, 1.0]),
                        _box_rows([-3.0, -2.0, -1.5], [2.0, 3.0, 2.0])]}

# sha256 of (report.json, boundary.csv) of adjusted-set in 3-D, recorded
# from the mesh boundary built by np.diff and np.pad per axis.  Each case
# sets a coarse --mesh: the default one would be 201^3 points.  One anchor
# per family lies in the middle band, the other in the top band.
ADJUSTED_SET_3D_DIGESTS = {
    ("box3d", "1.25,1.5,0.5", "0.2"): (
        "5038a74596c1244b2605ab75c4b1a245a5778cb2015bee361360eb37d6d8ea83",
        "dce4f22f0ddaa7c9301599695bb69cb974bb6cd0895b18b89ef438ec3097fddc"),
    ("box3d", "-2.5,-1.5,1.75", "0.25"): (
        "ebddbee4ed2c92a171e894f9d6d5d4a71f0b760778e4b92ece23c45f744a84e8",
        "b377a2b4ea57d79239f5e2639811becf98b70b5d66c2c50fa109ea0be0f85473"),
    ("step3d", "1.0,0.5,-1.0", "0.3"): (
        "8901d7528af0e6e86638824c4cec51c315270ca18413462adb7ac8a3e2583ac5",
        "d5fda3addc20b702e6746a4413b97ef7504118977a8bc2a486b6720351e4c511"),
    ("step3d", "-2.176945166118501,0.3610854896423776,-1.782008854052674",
     "0.4"): (
        "5205e64cb72a87bbc80ff24e0f7936cacf6d5e9ee6cd8ed794307941901c6c10",
        "74c61048cceff0565c8940cc48188e9474e5cdf063d65ab6de489c84ecd69a4d"),
}


@pytest.mark.parametrize("name, at, mesh", ADJUSTED_SET_3D_DIGESTS,
                         ids=["box3d-middle", "box3d-top", "step3d-middle",
                              "step3d-top"])
def test_adjusted_set_outputs_pinned_3d(name, at, mesh, tmp_path):
    instance = tmp_path / f"{name}.json"
    dump_json({"box3d": BOX_3D, "step3d": STEP_3D}[name], instance)
    out = tmp_path / "o"
    assert run(["adjusted-set", "--instance", str(instance), f"--at={at}",
                f"--mesh={mesh}", "--out", str(out)]) == 0
    assert (sha256_of(out / "report.json"), sha256_of(out / "boundary.csv")) \
        == ADJUSTED_SET_3D_DIGESTS[name, at, mesh]


# Both verdicts of check-quasiconvex at seed 42, recorded from the
# point-by-point checks; corrupted1d fails at the first checked draw.
CHECK_QUASICONVEX_VERDICTS = {
    "two_wells": {
        "quasiconvexity": {
            "checked": 22, "kind": "quasiconvexity", "passed": False,
            "witness": {"f_mid": 0.9791796983997227, "f_x": 0.9263042340835982,
                        "f_y": 0.35494243545402915, "t": 0.6131094189941395,
                        "x": [0.27146964087426384], "y": [-0.803154757531804]}},
        "adjusted_convexity": {
            "checked": 101, "kind": "adjusted_convexity", "passed": False,
            "witness": {"f_mid": 0.9991, "f_x": 0.6555712221599967,
                        "mid": [0.030000000000000027],
                        "x": [-0.5868805481867696],
                        "y1": [-0.9199999999999999], "y2": [0.98]}},
        "agree": True,
    },
    "corrupted1d": {
        "quasiconvexity": {
            "checked": 1, "kind": "quasiconvexity", "passed": False,
            "witness": {"f_mid": "inf", "f_x": 2.0, "f_y": 0.0,
                        "t": 0.5045452397039372, "x": [2.8782609982404046],
                        "y": [0.08172049027759964]}},
        "adjusted_convexity": {
            "checked": 1, "kind": "adjusted_convexity", "passed": False,
            "witness": {"mid": [0.773995964116197], "t": 0.29535902534408986,
                        "x": [1.1050278989188642], "y1": [0.0556453746674932],
                        "y2": [1.0751015449526349]}},
        "agree": True,
    },
}


@pytest.mark.parametrize("name", sorted(CHECK_QUASICONVEX_VERDICTS))
def test_check_quasiconvex_verdicts_pinned(name, corrupted1d, tmp_path):
    if name == "corrupted1d":
        instance = tmp_path / "corrupted1d.json"
        dump_json({"schema_version": 1, **function_to_dict(corrupted1d),
                   "validate": False}, instance)
    else:
        instance = os.path.join(SHIPPED, f"{name}.json")
    out = tmp_path / "o"
    code = run(["check-quasiconvex", "--instance", str(instance),
                "--out", str(out)])
    assert code == 2
    assert report_of(out)["report"] == CHECK_QUASICONVEX_VERDICTS[name]


@pytest.mark.parametrize("name, flags, flag", [
    ("sq2d", ["adjusted-set", "--at=1.5,0.5", "--mesh=-0.1"], "--mesh"),
    ("sq2d", ["adjusted-set", "--at=1.5,0.5", "--mesh=nan"], "--mesh"),
    ("step1d", ["usc-probe", "--at=0.5", "--radii=-0.1"], "--radii"),
    ("step1d", ["usc-probe", "--at=0.5", "--radii=0.1,nan"], "--radii"),
    ("step1d", ["usc-probe", "--at=0.5", "--tol=nan"], "--tol"),
    ("step1d", ["usc-probe", "--at=0.5", "--tol=0"], "--tol"),
    ("sq2d", ["normal-cone", "--at=inf,0.5"], "--at"),
    ("sq2d", ["check-quasiconvex", "--seed=-1"], "--seed"),
    ("gqvi", ["verify", "--seed=-3"], "--seed"),
], ids=["mesh-negative", "mesh-nan", "radii-negative", "radii-nan", "tol-nan",
        "tol-zero", "at-inf", "seed-negative", "seed-negative-verify"])
def test_bad_numeric_flag_exits_1(name, flags, flag, files, tmp_path, capsys):
    # Unchecked, a negative mesh or radius exited 0 with an empty or
    # vacuous report, a NaN tolerance failed a passing probe, a NaN mesh
    # or radius surfaced as a bare numpy or Polytope error, and a negative
    # seed as numpy's "expected non-negative integer".
    out = tmp_path / "o"
    code = run([flags[0], "--instance", str(files[name]), *flags[1:],
                "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"adjcone: {flag} must be")
    assert not (out / "report.json").exists()


def test_negative_point_as_separate_argument(files, tmp_path):
    reports = []
    for form in (["--at", "-1.5,0.5", "--radii", "0.1,0.01"],
                 ["--at=-1.5,0.5", "--radii=0.1,0.01"]):
        out = tmp_path / f"o{len(reports)}"
        code = run(["usc-probe", "--instance", str(files["sq2d"]), *form,
                    "--out", str(out)])
        assert code == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])["report"]
    assert report["point"] == [-1.5, 0.5] and report["radii"] == [0.1, 0.01]


def test_quasimono_probe_single_level(tmp_path):
    f = StepLevelFunction([0.0], [Polytope.from_box([-1.0], [1.0])])
    instance = tmp_path / "one_level.json"
    dump_json({"schema_version": 1, **function_to_dict(f)}, instance)
    out = tmp_path / "o"
    code = run(["quasimono-probe", "--instance", str(instance),
                "--out", str(out)])
    assert code == 0
    report = report_of(out)["report"]
    assert report["checked"] == 0 and report["violation_count"] == 0


# Two moving polytopes with non-box A and a constant operator that avoids
# the origin, so every minimax step is a general LP, not a box formula.
GQVI_2D = {
    "schema_version": 1,
    "K": {"A": [[1.0, 0.5], [-0.5, 1.0], [-1.0, -0.3], [0.2, -1.0], [0.8, -0.8]],
          "b": [1.0, 1.2, 1.0, 0.9, 1.1],
          "D": [[0.2, 0.0], [0.0, -0.1], [0.1, 0.1], [-0.1, 0.2], [0.0, 0.1]],
          "box": {"A": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                  "b": [2.0] * 4}},
    "T": {"kind": "constant",
          "polytope": {"A": [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                       "b": [-1.0, -0.2, 2.5]}},
    "solver": {"starts": 4, "seed": 7},
}
GQVI_3D = {
    "schema_version": 1,
    "K": {"A": [[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.0],
                [-1.0, -0.5, 0.2], [0.3, -1.0, -0.4], [-0.2, 0.4, -1.0],
                [0.6, 0.6, 0.6]],
          "b": [1.0, 1.1, 0.9, 1.2, 1.0, 1.1, 1.3],
          "D": [[0.1, 0.0, 0.0], [0.0, 0.1, -0.1], [0.0, 0.0, 0.2],
                [-0.1, 0.1, 0.0], [0.0, -0.1, 0.1], [0.1, 0.0, -0.1],
                [0.0, 0.1, 0.0]],
          "box": {"A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                        [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
                  "b": [2.0] * 6}},
    "T": {"kind": "constant",
          "polytope": {"A": [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                             [0.0, 0.0, -1.0], [1.0, 1.0, 1.0]],
                       "b": [-1.0, 0.3, 0.2, 2.6]}},
    "solver": {"starts": 4, "seed": 7},
}
NON_BOX_GQVI = {"gqvi2d": GQVI_2D, "gqvi3d": GQVI_3D}

# sha256 of report.json.  The quasiopt digest was recorded from the
# row-by-row simplex kernel with a separate feasibility LP for K(x) in
# every minimax step; the GQVI digests from the solver that jumps to the
# damped limit on a repeated final basis, ranks accepted points by norm,
# not by residual, and answers each minimax LP after its first by the
# dual simplex from the basis of the one before.
SOLVER_DIGESTS = {
    ("solve-gqvi", "moving_interval"):
        "e00372ff9f3084fd18a11dfd2d4bcb23930a897466e276eb970e13e52525dc2c",
    ("solve-gqvi", "gqvi2d"):
        "a3b095dd07d98e059b9585fc4c71eeea8423b34f4198ff1b8072df5119edfcc6",
    ("solve-gqvi", "gqvi3d"):
        "e179ce39c4c84ee1e2e0662586fb141bebef8a011460e1e44064a1b9d5e48886",
    ("solve-quasiopt", "quasiopt_window1d"):
        "ec1bafb3ef2eeae3de3229b4dc9be2fcf1b437f707b68540950748a70c46c58e",
}


@pytest.mark.parametrize("command, name", sorted(SOLVER_DIGESTS))
def test_solver_outputs_pinned(command, name, tmp_path):
    if name in NON_BOX_GQVI:
        instance = tmp_path / f"{name}.json"
        dump_json(NON_BOX_GQVI[name], instance)
    else:
        instance = os.path.join(SHIPPED, f"{name}.json")
    out = tmp_path / "o"
    code = run([command, "--instance", str(instance), "--out", str(out)])
    assert code == 0
    assert sha256_of(out / "report.json") == SOLVER_DIGESTS[command, name]


# sha256 of (report.json, trace.csv) of ``solve-gqvi --trace``, recorded
# from the start-by-start solver loop that jumps to the damped limit,
# ranks accepted points by norm and answers minimax LPs warm: the trace
# lists every minimax LP, damped steps and jumps, in (start, iteration)
# order.
TRACE_DIGESTS = {
    "moving_interval": (
        "e00372ff9f3084fd18a11dfd2d4bcb23930a897466e276eb970e13e52525dc2c",
        "c8618a203de630e1398b17248d489688a7ac4a3cd9fda6d72c74a831abbc2084"),
    "gqvi2d": (
        "a3b095dd07d98e059b9585fc4c71eeea8423b34f4198ff1b8072df5119edfcc6",
        "86a0c83e05f8f2c8367fac0f288c6ee2f01fdb907360bafdee96dc7d9a7ae115"),
    "gqvi3d": (
        "e179ce39c4c84ee1e2e0662586fb141bebef8a011460e1e44064a1b9d5e48886",
        "ccc93b3bdcc62a0b6f3f5c976ca25c6de537047c92e5ebd41b00ca3e7feeeb51"),
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_solver_trace_pinned(name, tmp_path):
    if name in NON_BOX_GQVI:
        instance = tmp_path / f"{name}.json"
        dump_json(NON_BOX_GQVI[name], instance)
    else:
        instance = os.path.join(SHIPPED, f"{name}.json")
    out = tmp_path / "o"
    assert run(["solve-gqvi", "--instance", str(instance), "--out", str(out),
                "--trace"]) == 0
    assert (sha256_of(out / "report.json"),
            sha256_of(out / "trace.csv")) == TRACE_DIGESTS[name]


def _point_3d(v):
    return {"A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                  [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
            "b": [v, 0.0, 0.0, -v, 0.0, 0.0]}


# The 3-D constraint map of GQVI_3D with an operator that pushes toward
# +x0 left of 0 and toward -x0 right of it, so the inequality has no
# solution, no start is accepted after its one step, and the report comes
# from the grid fallback (58 grid points) as ``residual_floor``.  The
# digest was recorded with the grid's minimax LPs answered warm.
GRID_FALLBACK_3D = {
    **GQVI_3D,
    "T": {"kind": "tabulated", "axis": 0, "breakpoints": [0.0],
          "polytopes": [_point_3d(-1.0), _point_3d(1.0)]},
    "solver": {"starts": 4, "seed": 7, "max_iters": 1, "mesh_divisions": 8},
}


def test_solver_grid_fallback_pinned(tmp_path):
    instance = tmp_path / "grid_fallback3d.json"
    dump_json(GRID_FALLBACK_3D, instance)
    out = tmp_path / "o"
    assert run(["solve-gqvi", "--instance", str(instance),
                "--out", str(out)]) == 2
    report = report_of(out)["report"]
    assert report["status"] == "residual_floor"
    assert report["iterations"] == report["starts_tried"] + 58
    assert sha256_of(out / "report.json") == (
        "3cb06b1a18b4f082402b8cd3f1a96016afc472bc567ada44ba2aade5e067dc4d")


@pytest.mark.parametrize("name, path, value, command", [
    pytest.param("sq2d", ("polytopes", 0, "A", 0, 0), "NaN",
                 ["adjusted-set", "--at=2,2"], id="sq2d-A-nan"),
    pytest.param("moving_interval", ("K", "b", 0), "Infinity",
                 ["solve-gqvi"], id="moving_interval-b-inf"),
    pytest.param("moving_interval", ("K", "D", 0, 0), "NaN",
                 ["solve-gqvi"], id="moving_interval-D-nan"),
    pytest.param("quasiopt_window1d", ("K", "box", "b", 1), "-Infinity",
                 ["solve-quasiopt"], id="window1d-box-b-neginf"),
])
def test_non_finite_instance_names_the_field(name, path, value, command,
                                             tmp_path, capsys):
    # Unchecked, the NaN in A read as "box is unbounded in a coordinate",
    # the infinite b solved (exit 0) and the NaN in D ran to a residual
    # floor (exit 2).
    with open(os.path.join(SHIPPED, f"{name}.json")) as handle:
        data = json.load(handle)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@"
    instance = tmp_path / f"{name}.json"
    instance.write_text(json.dumps(data).replace('"@"', value))
    code = run([command[0], "--instance", str(instance), *command[1:],
                "--out", str(tmp_path / "o")])
    assert code == 1
    field = path[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                              for k in path[1:])
    assert f"adjcone: {field} must be a finite number" in capsys.readouterr().err


_DROP = object()


def _edited_shipped(tmp_path, name, path, value):
    """A copy of a shipped instance with the field at ``path`` set to
    ``value``, or removed when ``value`` is ``_DROP``."""
    with open(os.path.join(SHIPPED, f"{name}.json")) as handle:
        data = json.load(handle)
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    instance = tmp_path / f"{name}.json"
    dump_json(data, instance)
    return instance


def _exits_1_with(argv, message, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"adjcone: {message}"), err
    assert "Traceback" not in err


BAD_SOLVER_FIELDS = [
    ("starts", 1.5, "solver.starts must be an integer >= 0, got 1.5"),
    ("starts", "3", "solver.starts must be an integer >= 0, got '3'"),
    ("starts", True, "solver.starts must be an integer >= 0, got True"),
    ("starts", -1, "solver.starts must be an integer >= 0, got -1"),
    ("max_iters", 2.5, "solver.max_iters must be an integer >= 1, got 2.5"),
    ("max_iters", 0, "solver.max_iters must be an integer >= 1, got 0"),
    ("mesh_divisions", 0, "solver.mesh_divisions must be an integer >= 1"),
    ("seed", -1, "solver.seed must be an integer >= 0, got -1"),
    ("gamma", -1.0, "solver.gamma must be a number in (0, 1], got -1.0"),
    ("gamma", 0.0, "solver.gamma must be a number in (0, 1], got 0.0"),
    ("gamma", 1.5, "solver.gamma must be a number in (0, 1], got 1.5"),
    ("gamma", "0.5", "solver.gamma must be a number in (0, 1], got '0.5'"),
    ("tol_solve", -1.0, "solver.tol_solve must be positive, got -1.0"),
    ("tol_solve", 0.0, "solver.tol_solve must be positive, got 0.0"),
]


@pytest.mark.parametrize("field, value, message", BAD_SOLVER_FIELDS,
                         ids=[f"{f}={v!r}" for f, v, _ in BAD_SOLVER_FIELDS])
def test_bad_solver_field_exits_1(field, value, message, tmp_path, capsys):
    # Unchecked, a float or string count crashed solve-gqvi with a
    # TypeError, a negative starts or seed surfaced numpy's own message,
    # and gamma <= 0 or tol_solve <= 0 were accepted.
    instance = _edited_shipped(tmp_path, "moving_interval",
                               ("solver", field), value)
    _exits_1_with(["solve-gqvi", "--instance", str(instance),
                   "--out", str(tmp_path / "o")], message, capsys)


@pytest.mark.parametrize("command", ["solve-quasiopt", "verify"])
@pytest.mark.parametrize("path, value, message", [
    (("cover_step",), _DROP, "missing field 'cover_step' in atlas_build"),
    (("region",), _DROP, "missing field 'region' in atlas_build"),
    ((), [0.25], "atlas_build must be an object"),
    (("cover_step",), 0, "atlas_build.cover_step must be positive, got 0"),
    (("cover_step",), -0.25,
     "atlas_build.cover_step must be positive, got -0.25"),
    (("radius_cap",), -1, "atlas_build.radius_cap must be positive, got -1"),
    (("argmin_margin",), -0.5,
     "atlas_build.argmin_margin must be a number >= 0, got -0.5"),
    (("region", "b"), _DROP, "missing field 'b' in atlas_build.region"),
], ids=["no-cover-step", "no-region", "list", "cover-step-zero",
        "cover-step-negative", "radius-cap-negative", "margin-negative",
        "region-without-b"])
def test_bad_atlas_build_exits_1(command, path, value, message, tmp_path,
                                 capsys):
    # Unchecked, a missing key or a list ended in a KeyError or TypeError
    # traceback, cover_step 0 in an OverflowError, a negative cover_step
    # solved, and a negative radius_cap failed the covering without
    # naming the field.
    instance = _edited_shipped(tmp_path, "quasiopt_window1d",
                               ("atlas_build", *path), value)
    _exits_1_with([command, "--instance", str(instance),
                   "--out", str(tmp_path / "o")], message, capsys)


_REGION_1D = {"A": [[1.0], [-1.0]], "b": [1.75, -0.25]}
_POINT_1D = {"A": [[1.0], [-1.0]], "b": [1.0, -1.0]}
_TABULATED_1D = {"kind": "tabulated", "axis": 0, "breakpoints": [0.0, 1.0],
                 "polytopes": [_POINT_1D] * 3}

BAD_STRUCTURE = [
    ("quasiopt_window1d", ("atlas",), 5, "atlas must be an object"),
    ("quasiopt_window1d", ("atlas",),
     {"charts": 5, "region": _REGION_1D, "cover_step": 0.25},
     "atlas.charts must be a list, got 5"),
    ("quasiopt_window1d", ("atlas",),
     {"charts": [5], "region": _REGION_1D, "cover_step": 0.25},
     "atlas.charts[0] must be an object"),
    ("quasiopt_window1d", ("K",), 5, "K must be an object"),
    ("quasiopt_window1d", ("function",), 5, "function must be an object"),
    ("quasiopt_window1d", ("function", "polytopes"), 5,
     "function.polytopes must be a list, got 5"),
    ("quasiopt_window1d", ("function", "levels"), 5,
     "function.levels must be a list, got 5"),
    ("step1d", ("levels",), 5, "function.levels must be a list, got 5"),
    ("moving_interval", ("K",), 5, "K must be an object"),
    ("moving_interval", ("T",), 5, "T must be an object"),
    ("moving_interval", ("T",), {**_TABULATED_1D, "breakpoints": 5},
     "T.breakpoints must be a list, got 5"),
    ("moving_interval", ("T",), {**_TABULATED_1D, "polytopes": 5},
     "T.polytopes must be a list, got 5"),
    ("moving_interval", ("T",), {**_TABULATED_1D, "axis": 7},
     "T.axis must be an integer in [0, 1), got 7"),
    ("moving_interval", ("T",), {**_TABULATED_1D, "axis": True},
     "T.axis must be an integer in [0, 1), got True"),
    ("moving_interval", ("T",), {**_TABULATED_1D, "breakpoints": [1.0, 0.0]},
     "T.breakpoints must strictly increase, got [1.0, 0.0]"),
    ("moving_interval", ("T",), {**_TABULATED_1D, "breakpoints": [0.0, 0.0]},
     "T.breakpoints must strictly increase, got [0.0, 0.0]"),
    ("step1d", ("levels",), [[0.0], 1.0, 2.0],
     "function.levels[0] must be a number, got [0.0]"),
    ("step1d", ("levels",), ["a", 1.0, 2.0],
     "function.levels[0] must be a number, got 'a'"),
    ("step1d", ("levels",), [0.0, True, 2.0],
     "function.levels[1] must be a number, got True"),
    ("quasiopt_window1d", ("function", "levels"), [0.0, None, 2.0],
     "function.levels[1] must be a number, got None"),
    ("quasiopt_window1d", ("atlas",),
     {"charts": [{"z": [0.5], "lambda": [0.5], "z0": [0.0], "eps": 0.2}],
      "region": _REGION_1D, "cover_step": 0.25},
     "atlas.charts[0].lambda must be a number, got [0.5]"),
    ("moving_interval", ("K", "b"), [{}, 1.0], "K.b[0] must be a number, got {}"),
    ("step1d", ("polytopes", 2, "b"), [True, 1.0],
     "function.polytopes[2].b[0] must be a number, got True"),
    ("step1d", ("polytopes", 2, "A"), [[1.0], ["-1"]],
     "function.polytopes[2].A[1][0] must be a number, got '-1'"),
    ("step1d", ("polytopes", 2, "A"), [[1.0], [-1.0, 0.0]],
     "function.polytopes[2].A[1] has 2 entries, expected 1"),
    ("step1d", ("polytopes", 2, "A"), "x",
     "function.polytopes[2].A must be a list, got 'x'"),
    ("step1d", ("polytopes", 0, "V"), [[-1.0], [False]],
     "function.polytopes[0].V[1][0] must be a number, got False"),
    ("step1d", ("validate",), "false",
     "function.validate must be true or false, got 'false'"),
    ("moving_interval", ("K", "A"), [[1.0], [True]],
     "K.A[1][0] must be a number, got True"),
    ("moving_interval", ("K", "D"), [[0.5], [-0.5, 0.0]],
     "K.D[1] has 2 entries, expected 1"),
    ("moving_interval", ("K", "b"), 1.0, "K.b must be a list, got 1.0"),
    ("moving_interval", ("K", "D"), [[0.5], [-(10 ** 400)]],
     "K.D[1][0] must be a finite number, got an integer too large"),
]
_STRUCTURE_COMMAND = {"quasiopt_window1d": "solve-quasiopt",
                      "step1d": "check-quasiconvex",
                      "moving_interval": "solve-gqvi"}


@pytest.mark.parametrize("name, path, value, message", BAD_STRUCTURE, ids=[
    "atlas-number", "charts-number", "chart-number", "quasiopt-K-number",
    "function-number", "polytopes-number", "levels-number",
    "step-levels-number", "gqvi-K-number", "T-number", "breakpoints-number",
    "tabulated-polytopes-number", "axis-past-dim", "axis-bool",
    "breakpoints-decreasing", "breakpoints-repeated", "level-list",
    "level-text", "level-bool", "quasiopt-level-null", "chart-lambda-list",
    "K-b-object", "polytope-b-bool", "polytope-A-text", "polytope-A-ragged",
    "polytope-A-text-matrix", "polytope-V-bool", "validate-text", "K-A-bool",
    "K-D-ragged", "K-b-number", "K-D-huge-integer"])
def test_bad_instance_structure_exits_1(name, path, value, message, tmp_path,
                                        capsys):
    # Unchecked, a number where an object or a list belongs ended in a
    # TypeError traceback out of serialization, a tabulated axis past the
    # dimension in an IndexError, and unsorted breakpoints solved with
    # mis-assigned cells.  A list or an object where a number belongs
    # (a level, a chart level, an entry of K.b) ended in a TypeError
    # traceback, and text in a ValueError that named no field.  In a
    # polytope's A, b or V, or in K's A, b or D, a bool loaded as 0 or 1,
    # and text or a ragged row gave numpy's message; a text "validate"
    # was read by its truthiness.  An integer literal past the float
    # range ended in an OverflowError traceback.
    instance = _edited_shipped(tmp_path, name, path, value)
    _exits_1_with([_STRUCTURE_COMMAND[name], "--instance", str(instance),
                   "--out", str(tmp_path / "o")], message, capsys)


@pytest.mark.parametrize("name, field, value, message", DIMENSION_MISMATCHES,
                         ids=DIMENSION_IDS)
def test_dimension_mismatch_exits_1(name, field, value, message, tmp_path,
                                    capsys):
    commands = (["solve-gqvi", "verify"] if name == "moving_interval"
                else ["solve-quasiopt", "verify"])
    instance = _edited_shipped(tmp_path, name, (field,), value)
    for command in commands:
        _exits_1_with([command, "--instance", str(instance),
                       "--out", str(tmp_path / command)], message, capsys)


def test_tabulated_instance_solves(tmp_path):
    # The well-formed base of the tabulated cases above.  Its operator
    # value changes from cell to cell along the steps, so the digests of
    # (report.json, trace.csv), recorded from the start-by-start solver
    # that jumps to the damped limit within a cell, pin a solve whose
    # minimax LPs change rows with x.
    instance = _edited_shipped(tmp_path, "moving_interval", ("T",),
                               _TABULATED_1D)
    out = tmp_path / "o"
    assert run(["solve-gqvi", "--instance", str(instance), "--out", str(out),
                "--trace"]) == 0
    assert (sha256_of(out / "report.json"), sha256_of(out / "trace.csv")) == (
        "fb431ce192196c670265d70ea981633dbce08ba0d0ced66d1f234e330e83a4c9",
        "62adbf578692464aec2c01432ac6765ba2861109873df3f6a1718301463793b3")


NON_BOX_STEP = {"step3d": STEP_3D, "step4d": STEP_4D}

# sha256 of report.json, recorded from the adjusted normal cone with the
# sampled generator check.  Of the two normal-cone points per family, the
# first lies on a facet of the middle level, the second inside the top
# level band.
NORMAL_CONE_DIGESTS = {
    ("normal-cone", "step3d",
     "-1.563297783202433,-0.5910371217147096,-1.6280455207780833"):
        "1fc39da2205a7d06119bc520f3da37443a98cff0dea8c3f7d1145e68fe721fe1",
    ("normal-cone", "step3d",
     "-2.176945166118501,0.3610854896423776,-1.782008854052674"):
        "1c9ef81d9599b30d2b48a926aa598208282354f02dd0da3a3ea76b0a7bdccd3a",
    ("normal-cone", "step4d", "0.9959725377701943,0.13993143829508597,"
                              "-2.073283599058607,1.1217383302555264"):
        "ef71df5d8e3d5a2dd624da2075b397f35d1195078e9e7475c17bb1e67c58cf59",
    ("normal-cone", "step4d", "1.99388421814698,-0.4688285617082443,"
                              "-0.030155873755510095,-2.9329172374608787"):
        "fabd5a630e2facb756cff13893d55e69045aa5e873054ca571cc67cd25c4f69d",
    ("closedness-probe", "step1d", "0.5"):
        "adec53e9a2c1498844f74182fc7e57af805cb94e606722f8ba8411434c3f19fc",
    ("quasimono-probe", "sq2d", None):
        "219619cd502f9ffc288069cb89906a910cb2fdda240cbd8bc4220bd4c325a905",
}


@pytest.mark.parametrize(
    "command, name, at", NORMAL_CONE_DIGESTS,
    ids=["step3d-facet", "step3d-interior", "step4d-facet", "step4d-interior",
         "closedness-step1d", "quasimono-sq2d"])
def test_normal_cone_outputs_pinned(command, name, at, tmp_path):
    if name in NON_BOX_STEP:
        instance = tmp_path / f"{name}.json"
        dump_json(NON_BOX_STEP[name], instance)
    else:
        instance = os.path.join(SHIPPED, f"{name}.json")
    out = tmp_path / "o"
    extra = [f"--at={at}"] if at is not None else []
    code = run([command, "--instance", str(instance), *extra,
                "--out", str(out)])
    assert code == 0
    assert (sha256_of(out / "report.json")
            == NORMAL_CONE_DIGESTS[command, name, at])


def test_cli_import_leaves_qhull_unloaded():
    # Only Polytope.from_vertices needs scipy.spatial; commands that never
    # build a hull must not pay for importing it.
    src = os.path.dirname(os.path.dirname(adjcone.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, adjcone.cli; "
             "print('scipy.spatial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# sha256 of report.json for the atlas commands on the shipped step
# instances and for verify on the shipped GQVI and quasiopt instances,
# recorded before the grid helpers and section checks were merged.
ATLAS_VERIFY_DIGESTS = {
    ("build-atlas", "step1d", "0.5"):
        "c0462ac7b5b771760d7e7bd4b856dbb16835f3c872c0fb614e3deeab60947084",
    ("build-atlas", "sq2d", "1.5,0.5"):
        "2ccf980df07fc6406a5a70cdfccf27e1c5de0cbef9ce31ce7e6f71c065a9301b",
    ("base-map", "step1d", "0.5"):
        "3a59a930042b4537527b1d0193bb766edec72a680ab273b117ac87f860ac3628",
    ("base-map", "sq2d", "1.5,0.5"):
        "cae23d6d14740724cfc0c23ccb35d962244a271627f46e6db213c7d810cb6871",
    ("usc-probe", "step1d", "0.5"):
        "31f9f9d67385d077761cf6c157b633f203f2badd6d922c13c87643acd3d0a250",
    ("usc-probe", "sq2d", "1.5,0.5"):
        "5c106f68a9af8f2b2d8bff0334388ff7fef6ed79f754e0c12dbc7225ca96a8cc",
    ("verify", "moving_interval", None):
        "fe802fa091bbff0eb77e589fe6f32d6af1a945c53e1c5f22a95fae68688839d3",
    ("verify", "quasiopt_window1d", None):
        "57877471b19703bca5029536b985dc98bae3fa80a0de5f355b526e290bd8c945",
}


@pytest.mark.parametrize(
    "command, name, at", ATLAS_VERIFY_DIGESTS,
    ids=["build-atlas-step1d", "build-atlas-sq2d", "base-map-step1d",
         "base-map-sq2d", "usc-probe-step1d", "usc-probe-sq2d",
         "verify-moving_interval", "verify-window1d"])
def test_atlas_and_verify_outputs_pinned(command, name, at, tmp_path):
    out = tmp_path / "o"
    extra = [f"--at={at}"] if at is not None else []
    code = run([command, "--instance", os.path.join(SHIPPED, f"{name}.json"),
                *extra, "--out", str(out)])
    assert code == 0
    assert (sha256_of(out / "report.json")
            == ATLAS_VERIFY_DIGESTS[command, name, at])


# sha256 of report.json for verify on the non-box GQVI data above,
# recorded while K(x) was built as a Polytope from the stacked rows at
# every point: the feasibility LP of each slice, and the active-set
# projections of the lsc probe, show in the report bits.
VERIFY_NON_BOX_DIGESTS = {
    "gqvi2d":
        "6e5f738cb2d856d91bc9b0e1279abe08667658cdf0e5e0764d77085d279ecdaf",
    "gqvi3d":
        "246bbc2778def4f239c34ca0d5f97a29d14e2a28535bb18654c4356c731fabf5",
}


@pytest.mark.parametrize("name", sorted(VERIFY_NON_BOX_DIGESTS))
def test_verify_pinned_non_box(name, tmp_path):
    instance = tmp_path / f"{name}.json"
    dump_json(NON_BOX_GQVI[name], instance)
    out = tmp_path / "o"
    assert run(["verify", "--instance", str(instance), "--out", str(out)]) == 0
    assert sha256_of(out / "report.json") == VERIFY_NON_BOX_DIGESTS[name]


# sha256 of report.json for the shipped commands that no other pin covers,
# so that with the pins above every shipped command of the benchmark's
# pass has its report bytes checked; recorded before the closed-form
# axis-box membership test.  check-quasiconvex on two_wells exits 2.
SHIPPED_DIGESTS = {
    ("check-quasiconvex", "step1d", None):
        "e806f582289a783703e41f881db7b056193581911fe266afbc6e8a0f03f52637",
    ("check-quasiconvex", "sq2d", None):
        "7a2ecb04dccf5abda801444398063fc233449e28f5be573f955cb73c9a655d03",
    ("check-quasiconvex", "two_wells", None):
        "a6d041298dd732801d227bc544aef7b79f660c2d101fa9448d7d3dfc4f2998bf",
    ("normal-cone", "sq2d", "2,2"):
        "80ab9fc5e8543b5d5da5a88a3e892e25d4d8abf55cbd1007d166e70858afd3ec",
    ("normal-cone", "step1d", "0.5"):
        "9d8840e4b1c9a183e3d0b359f663bec537f52b8c07303db45d927c323202b903",
    ("verify", "two_wells", None):
        "e1e008ff1e91fa82c53bc7e28e8a73e248408ae5a7bdde8fcafc2df4ed18a31a",
}


@pytest.mark.parametrize(
    "command, name, at", SHIPPED_DIGESTS,
    ids=["check-step1d", "check-sq2d", "check-two_wells", "normal-cone-sq2d",
         "normal-cone-step1d", "verify-two_wells"])
def test_shipped_outputs_pinned(command, name, at, tmp_path):
    out = tmp_path / "o"
    extra = [f"--at={at}"] if at is not None else []
    code = run([command, "--instance", os.path.join(SHIPPED, f"{name}.json"),
                *extra, "--out", str(out)])
    assert code == (2 if (command, name) == ("check-quasiconvex", "two_wells")
                    else 0)
    assert sha256_of(out / "report.json") == SHIPPED_DIGESTS[command, name, at]


# sha256 of report.json for the atlas commands on the non-box 3-D family,
# at its interior normal-cone point, recorded from the per-chart bump
# loops.  The mesh gives 243 charts and a 17^3 verification grid.
ATLAS_3D_AT = "-2.176945166118501,0.3610854896423776,-1.782008854052674"
ATLAS_3D_DIGESTS = {
    "build-atlas":
        "aa0c15a9ec5117614aa97f97542030b7dafb8cde019d434e98a2b1e9366f3772",
    "base-map":
        "87ea68b01520ef99460164cd9d804d98add39f0af2de1df4ce3c1a71cdc1b042",
    "usc-probe":
        "b9d32a6f3a45cb32e65e0540da7a0ca2ad1507a8feeea3a44eaeb657ce4c887b",
}


@pytest.mark.parametrize("command", sorted(ATLAS_3D_DIGESTS))
def test_atlas_outputs_pinned_non_box_3d(command, tmp_path):
    instance = tmp_path / "step3d.json"
    dump_json(STEP_3D, instance)
    out = tmp_path / "o"
    code = run([command, "--instance", str(instance), f"--at={ATLAS_3D_AT}",
                "--mesh=0.14", "--out", str(out)])
    assert code == 0
    assert sha256_of(out / "report.json") == ATLAS_3D_DIGESTS[command]


# sha256 of report.json for the normal-cone probes on the non-box 3-D
# family at the same point, recorded before the probes shared cones
# between points.  No closedness approach point repeats here, unlike on
# step1d, where the unit directions are exactly +-1.
PROBE_3D_DIGESTS = {
    "closedness-probe":
        "c7b0c1c16421eda20ab7238efe67bc76457c944711c26dd50445480cdecdb0fe",
    "quasimono-probe":
        "8421bd3056af2b645341da3e3c2b247908d70a5991f0c06d2d2b0449ea5cc698",
}


@pytest.mark.parametrize("command", sorted(PROBE_3D_DIGESTS))
def test_probe_outputs_pinned_non_box_3d(command, tmp_path):
    instance = tmp_path / "step3d.json"
    dump_json(STEP_3D, instance)
    out = tmp_path / "o"
    code = run([command, "--instance", str(instance), f"--at={ATLAS_3D_AT}",
                "--out", str(out)])
    assert code == 0
    assert sha256_of(out / "report.json") == PROBE_3D_DIGESTS[command]


def test_normal_cone_lp_calls_pinned_non_box_3d(tmp_path):
    # Each level's rows bound the one below it, so loading solves one
    # feasibility probe (innermost level) and one boundedness certificate
    # (the domain), and the cone projects onto the strict level from its
    # Chebyshev centre, the one centre computed.  Certifying each level
    # and computing every centre at load made this 9; with the 2n
    # bounding-box LPs of every load it was 24: an LP added to the load
    # path shows here.
    instance = tmp_path / "step3d.json"
    dump_json(STEP_3D, instance)
    out = tmp_path / "o"
    assert run(["normal-cone", "--instance", str(instance),
                f"--at={ATLAS_3D_AT}", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["lp"]["calls"] == 3


# sha256 of report.json for check-quasiconvex (seed 42) on the non-box
# families, recorded while every sublevel row was projected onto every
# strict level.
CHECK_QUASICONVEX_NON_BOX_DIGESTS = {
    "step3d":
        "ae2f375173adc5ac9389fa6a3f5fb20e8714bd81e4f3b6d6039646808c4fd86a",
    "step4d":
        "7e0f1eee72d2936dd7106811ea6dfb20808b74948f3767320a774b8c92ac68aa",
}


@pytest.mark.parametrize("name", sorted(CHECK_QUASICONVEX_NON_BOX_DIGESTS))
def test_check_quasiconvex_pinned_non_box(name, tmp_path):
    instance = tmp_path / f"{name}.json"
    dump_json(NON_BOX_STEP[name], instance)
    out = tmp_path / "o"
    code = run(["check-quasiconvex", "--instance", str(instance),
                "--out", str(out)])
    assert code == 0
    assert (sha256_of(out / "report.json")
            == CHECK_QUASICONVEX_NON_BOX_DIGESTS[name])


def test_check_quasiconvex_projects_few_rows(tmp_path, monkeypatch):
    # Membership tests decide most rows by distance bounds and project
    # only those near rho(x) + tol.  Projecting every sublevel row onto
    # every strict level called Polytope.project 3,346 times here.
    calls = []
    project = Polytope.project
    monkeypatch.setattr(Polytope, "project",
                        lambda self, x: calls.append(1) or project(self, x))
    instance = tmp_path / "step4d.json"
    dump_json(STEP_4D, instance)
    assert run(["check-quasiconvex", "--instance", str(instance),
                "--out", str(tmp_path / "o")]) == 0
    assert 0 < len(calls) <= 3346 // 5


def test_normal_cone_reads_faces_without_lps(tmp_path, monkeypatch):
    # Facets and implicit equalities come from the vertex incidence.  The
    # LP face tests made 48 solve_lp calls here, 18 of them in reduced().
    calls = []
    solve_lp = geometry.solve_lp
    monkeypatch.setattr(geometry, "solve_lp",
                        lambda *a, **k: calls.append(1) or solve_lp(*a, **k))
    instance = tmp_path / "step4d.json"
    dump_json(STEP_4D, instance)
    at = next(at for _, name, at in NORMAL_CONE_DIGESTS if name == "step4d")
    assert run(["normal-cone", "--instance", str(instance), f"--at={at}",
                "--out", str(tmp_path / "o")]) == 0
    assert 0 < len(calls) <= 30


def test_adjusted_set_pinned_non_box_3d(tmp_path):
    # Recorded like the digests above.  The mesh has 136,416 rows, 17,794
    # of them in the sublevel set.
    instance = tmp_path / "step3d.json"
    dump_json(STEP_3D, instance)
    out = tmp_path / "o"
    code = run(["adjusted-set", "--instance", str(instance),
                f"--at={ATLAS_3D_AT}", "--mesh=0.3", "--out", str(out)])
    assert code == 0
    assert (sha256_of(out / "report.json"), sha256_of(out / "boundary.csv")) == (
        "e3bcb1b7fb16da1fe6850b798843c310f4f7904aa8865d58c06090e7bc5fd5f7",
        "088bce1f2fdc175d05a19371a0f5e664a776bed8db466580640268b986d2770b")


def _refuse_grids(monkeypatch):
    # A grid past the bound is refused before it is built: both grid
    # builders stack their axes with np.meshgrid.
    def built(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(np, "meshgrid", built)


@pytest.mark.parametrize("command", ["build-atlas", "usc-probe",
                                     "adjusted-set"])
def test_fine_mesh_exits_1_naming_the_flag(command, monkeypatch, tmp_path,
                                           capsys):
    # At mesh 1e-300 numpy refused the grid with its bare "Maximum
    # allowed size exceeded".
    _refuse_grids(monkeypatch)
    assert run([command, "--instance", os.path.join(SHIPPED, "step1d.json"),
                "--at=0.5", "--mesh=1e-300", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("adjcone: a grid of mesh 1e-300 would hold more than "
                   "10,000,000 points; use a coarser --mesh\n")


def test_adjusted_set_4d_default_mesh_exits_1(monkeypatch, tmp_path, capsys):
    # At its default mesh (1/200 of the widest side) the 4-D grid of this
    # sublevel set would hold about 1e8 points.
    instance = tmp_path / "step4d.json"
    dump_json(STEP_4D, instance)
    a = np.array(STEP_4D["polytopes"][0]["A"])
    b = np.array(STEP_4D["polytopes"][0]["b"])
    up = a[:, 0] > 0
    at = [2.5 * float(np.min(b[up] / a[up, 0])), 0.0, 0.0, 0.0]
    _refuse_grids(monkeypatch)
    assert run(["adjusted-set", "--instance", str(instance),
                "--at=" + ",".join(map(repr, at)),
                "--out", str(tmp_path / "o")]) == 1
    assert "more than 10,000,000 points; use a coarser --mesh" in (
        capsys.readouterr().err)

import hashlib
import json
import os

import numpy as np
import pytest

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


def test_malformed_instance_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "step", "levels": [0.0]}))
    code = run(["check-quasiconvex", "--instance", str(bad),
                "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "polytopes" in err


def test_missing_file_exits_1(tmp_path):
    code = run(["check-quasiconvex", "--instance", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "o")])
    assert code == 1


def test_bad_usage_exits_1(capsys):
    assert run(["not-a-command", "--instance", "x.json"]) == 1


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

# sha256 of report.json, recorded from the row-by-row simplex kernel with
# a separate feasibility LP for K(x) in every minimax step.
SOLVER_DIGESTS = {
    ("solve-gqvi", "moving_interval"):
        "3a30017b41dcc253d1651c78be1eafb58c17697d97a0f7149b15977afe461ba0",
    ("solve-gqvi", "gqvi2d"):
        "3a13b81a6d035adadc075876422fbaf7d5e78cedfb1e4789931c6bd686a261ff",
    ("solve-gqvi", "gqvi3d"):
        "4bb4caeb01ec0ce618a2cd3a316a0882cc0aee0f0a2ef8c2425a372271191f8b",
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

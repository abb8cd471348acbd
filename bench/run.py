#!/usr/bin/env python3
"""adjcone benchmark: seeded CLI workloads, timed in-process.

Usage (from the repository root):

    python3 bench/run.py --workload shipped --seed 1 --seconds 40 --trace 0

One client drives ``adjcone.cli.run`` in a closed loop, command after
command, pass after pass, until the time is up.  Every command's exit
code and ``report.json`` are checked.  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it alternates plain and traced
passes over the same inputs and reports per-layer counts and self times.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
next to this file for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One thread per BLAS pool, set before numpy loads: the program is
# single-threaded and a pool would only add scheduling noise.
BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
from tracer import Tracer, target_names  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
INSTANCES = os.path.join(ROOT, "instances")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
IMPORT_MODULES = (
    "adjcone", "adjcone.lp", "adjcone.geometry", "adjcone.quasiconvex",
    "adjcone.normal_op", "adjcone.gqvi", "adjcone.quasiopt",
    "adjcone.serialization", "adjcone.cli")
IMPORT_ROOTS = ("numpy", "scipy.spatial")
TOL = 1e-6


class Command:
    """One CLI invocation with its expected exit code and report check."""

    def __init__(self, label, argv, expect=0, check=None):
        self.label = label
        self.argv = argv
        self.expect = expect
        self.check = check

    def key(self):
        """Identifies the same command on the same input bytes, wherever
        the input file lies."""
        at = self.argv.index("--instance") + 1
        with open(self.argv[at], "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        return " ".join([digest, *self.argv[:at - 1], *self.argv[at + 1:]])


def check_gqvi(report):
    if report["status"] != "solved":
        return f"status {report['status']}"
    if report["residual"] < -TOL:
        return f"residual {report['residual']}"
    return None


def check_quasiopt(report):
    if not report["verified"]:
        return "not verified"
    if report["f_value"] > report["grid_min"] + TOL:
        return f"f_value {report['f_value']} above grid_min {report['grid_min']}"
    return None


# -- workloads ---------------------------------------------------------------


def shipped_pass(seed, index, in_dir):
    """All 11 commands on the 5 shipped instance files, 19 invocations.

    The inputs never change, so every pass repeats the previous one.
    ``adjusted-set`` runs three times on ``sq2d`` so that the p90 rank of
    the 19 commands falls inside its group of samples, not at its edge;
    the cheap 1-D call keeps the p50 rank inside the ``solve-quasiopt``
    group.
    """
    def inst(name):
        return ["--instance", os.path.join(INSTANCES, name)]

    return [
        Command("check-quasiconvex step1d", ["check-quasiconvex", *inst("step1d.json")]),
        Command("check-quasiconvex sq2d", ["check-quasiconvex", *inst("sq2d.json")]),
        Command("check-quasiconvex two_wells",
                ["check-quasiconvex", *inst("two_wells.json")], expect=2),
        Command("adjusted-set sq2d corner", ["adjusted-set", *inst("sq2d.json"), "--at=2,2"]),
        Command("adjusted-set sq2d band", ["adjusted-set", *inst("sq2d.json"), "--at=1.5,0.5"]),
        Command("adjusted-set sq2d diagonal",
                ["adjusted-set", *inst("sq2d.json"), "--at=-1.5,-1.5"]),
        Command("adjusted-set step1d", ["adjusted-set", *inst("step1d.json"), "--at=0.5"]),
        Command("normal-cone sq2d", ["normal-cone", *inst("sq2d.json"), "--at=2,2"]),
        Command("normal-cone step1d", ["normal-cone", *inst("step1d.json"), "--at=0.5"]),
        Command("build-atlas step1d", ["build-atlas", *inst("step1d.json"), "--at=0.5"]),
        Command("base-map sq2d", ["base-map", *inst("sq2d.json"), "--at=1.5,0.5"]),
        Command("usc-probe sq2d", ["usc-probe", *inst("sq2d.json"), "--at=1.5,0.5"]),
        Command("closedness-probe step1d",
                ["closedness-probe", *inst("step1d.json"), "--at=0.5"]),
        Command("quasimono-probe sq2d", ["quasimono-probe", *inst("sq2d.json")]),
        Command("solve-gqvi moving_interval",
                ["solve-gqvi", *inst("moving_interval.json")], check=check_gqvi),
        Command("solve-quasiopt window1d",
                ["solve-quasiopt", *inst("quasiopt_window1d.json")], check=check_quasiopt),
        Command("verify moving_interval", ["verify", *inst("moving_interval.json")]),
        Command("verify two_wells", ["verify", *inst("two_wells.json")]),
        Command("verify window1d", ["verify", *inst("quasiopt_window1d.json")]),
    ]


def polytope_nd_pass(seed, index, in_dir):
    """Three fresh non-box nested step families: two 3-D with 10 facets,
    one 4-D with 12 facets, four commands each."""
    rng = np.random.default_rng([seed, index])
    commands = []
    for fam, (dim, facets) in enumerate(((3, 10), (3, 10), (4, 12))):
        instance, facet_point, interior_point = gen.step_family(rng, dim, facets)
        path = os.path.join(in_dir, f"pass{index}-family{fam}-{dim}d.json")
        gen.write_json(path, instance)
        tag = f"family{fam} {dim}d"
        commands += [
            Command(f"normal-cone facet {tag}",
                    ["normal-cone", "--instance", path, "--at=" + gen.coords(facet_point)]),
            Command(f"normal-cone interior {tag}",
                    ["normal-cone", "--instance", path, "--at=" + gen.coords(interior_point)]),
            Command(f"check-quasiconvex {tag}", ["check-quasiconvex", "--instance", path]),
            Command(f"verify {tag}", ["verify", "--instance", path]),
        ]
    return commands


def gqvi_solve_pass(seed, index, in_dir):
    """Five fresh moving-polytope GQVIs (one 2-D, four 3-D) and the
    shipped quasiopt window, whose operator T(x) changes with x."""
    rng = np.random.default_rng([seed, index])
    commands = []
    for k, dim in enumerate((2, 3, 3, 3, 3)):
        path = os.path.join(in_dir, f"pass{index}-gqvi{k}-{dim}d.json")
        gen.write_json(path, gen.gqvi_instance(rng, dim, dim + 4))
        commands.append(Command(f"solve-gqvi gqvi{k} {dim}d",
                                ["solve-gqvi", "--instance", path], check=check_gqvi))
    commands.append(Command(
        "solve-quasiopt window1d",
        ["solve-quasiopt", "--instance",
         os.path.join(INSTANCES, "quasiopt_window1d.json")],
        check=check_quasiopt))
    return commands


WORKLOADS = {
    "shipped": shipped_pass,
    "polytope-nd": polytope_nd_pass,
    "gqvi-solve": gqvi_solve_pass,
}


# -- machine speed -----------------------------------------------------------

# Fast-state probe time on the reference machine (2-vCPU x86-64 VM,
# Python 3.11, numpy 2.4).  Times are reported at this machine speed.
PROBE_REF_S = 0.85e-3
_PROBE_M = np.eye(4) * 0.5
_PROBE_V = np.linspace(0.5, 1.5, 4)


def probe():
    """Fixed work of about a millisecond, in seconds.

    The same mix the program spends its time in: interpreter bytecode
    and calls on tiny numpy arrays.  It never touches adjcone, so it moves
    with the machine and not with the code.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(500):
        acc += float(np.dot(_PROBE_M @ _PROBE_V, _PROBE_V)) + (i * i) % 7
    return time.perf_counter() - start


def slowdown(probes):
    """How much slower than the reference the machine ran the probes.

    On a shared host the speed flips between a fast and a slow state
    (about 1.7x apart) within tens of milliseconds, so the mean, not the
    median, tracks the share of time spent slow.  Probes hit by a
    preemption are clipped at 3x.
    """
    return statistics.fmean(min(p, 3 * PROBE_REF_S) for p in probes) / PROBE_REF_S


# -- running and checking ----------------------------------------------------


class Runner:
    """Runs passes through ``cli.run`` and checks every output."""

    def __init__(self, cli, workload, out_dir):
        self.cli = cli
        self.out_dir = out_dir
        self.digest_path = os.path.join(WORK, f"digests-{workload}.json")
        self.digests = {}
        if os.path.exists(self.digest_path):
            with open(self.digest_path) as handle:
                self.digests = json.load(handle)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_command(self, command):
        """Returns ``(seconds, report digest or None)``."""
        report_path = os.path.join(self.out_dir, "report.json")
        if os.path.exists(report_path):
            os.unlink(report_path)
        argv = [*command.argv, "--out", self.out_dir]
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = self.cli.run(argv)
        except Exception as exc:  # a raising command is a failed command
            elapsed = time.perf_counter() - start
            self._fail(command, f"raised {type(exc).__name__}: {exc}")
            return elapsed, None
        elapsed = time.perf_counter() - start
        problem, digest = self._check(command, code, report_path)
        if problem:
            self._fail(command, problem)
        return elapsed, digest

    def _check(self, command, code, report_path):
        if code != command.expect:
            return f"exit code {code}, expected {command.expect}", None
        try:
            with open(report_path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return "no report.json", None
        digest = hashlib.sha256(raw).hexdigest()
        key = command.key()
        if self.digests.setdefault(key, digest) != digest:
            return "report.json differs from an earlier run on the same input", digest
        if command.check is not None:
            problem = command.check(json.loads(raw)["report"])
            if problem:
                return problem, digest
        return None, digest

    def _fail(self, command, problem):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{command.label}: {problem}")

    def run_pass(self, commands, probes):
        """Runs every command, then a speed probe into ``probes``.

        Returns the command latencies in seconds and the report digest of
        each command.
        """
        latencies, digests = [], []
        for command in commands:
            elapsed, digest = self.run_command(command)
            latencies.append(elapsed)
            digests.append(digest)
            probes.append(probe())
        return latencies, digests

    def save_digests(self):
        tmp = self.digest_path + f".{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(self.digests, handle, sort_keys=True)
        os.replace(tmp, self.digest_path)


# -- set-up cost and environment ---------------------------------------------


def _child_env():
    return {**os.environ, "PYTHONPATH": SRC}  # BLAS_ENV is already in it


def setup_seconds():
    """Median wall time of a fresh interpreter importing ``adjcone.cli``,
    and the slowdown measured around the imports."""
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes += [probe() for _ in range(20)]
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import adjcone.cli"],
                       cwd=ROOT, env=_child_env(), check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times), slowdown(probes)


def import_times():
    """Per-module import seconds from ``python -X importtime``, medians.

    Package modules report self time (their own top-level code); the
    third-party roots report cumulative time (everything they load).
    """
    samples = {}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import adjcone.cli"],
            cwd=ROOT, env=_child_env(), check=True,
            capture_output=True, text=True)
        total = 0
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            total += int(self_us)
            if name in IMPORT_MODULES:
                seen[name] = int(self_us)
            elif name in IMPORT_ROOTS:
                seen[name] = int(cumulative_us)
        seen["total"] = total
        for name, micros in seen.items():
            samples.setdefault(name, []).append(micros / 1e6)
    return {name: statistics.median(v) for name, v in samples.items()}


def environment():
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    source = hashlib.sha256()
    package = os.path.join(SRC, "adjcone")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
        "blas_threads": 1,
        "loadavg_start": os.getloadavg(),
    }


# -- metrics -----------------------------------------------------------------


def end_to_end(attempted, failed, latencies, pass_times, setup, run_slowdown=1.0,
               setup_slowdown=1.0):
    """Times divided by the slowdowns give reference machine speed.
    Percentiles interpolate linearly between order statistics."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": (setup / setup_slowdown, "s"),
        "pass_s": (statistics.median(pass_times) / run_slowdown, "s"),
        "cmd_p50_ms": (1e3 * deciles[4] / run_slowdown, "ms"),
        "cmd_p90_ms": (1e3 * deciles[8] / run_slowdown, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(first, snapshots, overheads, imports):
    """Counts from the first traced pass; self times as medians over all
    traced passes."""
    calls, work = first["calls"], first["work"]
    metrics = {}
    for name in target_names():
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(s["self_s"][name] for s in snapshots), "s")
    metrics["normal_op.fallback_ratio"] = (_ratio(
        calls["normal_op.polar_of_samples"],
        calls["normal_op.adjusted_normal_cone"]), "ratio")
    metrics["normal_op.chart_accept_ratio"] = (_ratio(
        calls["normal_op.build_chart"] - first["raised"]["normal_op.build_chart"],
        calls["normal_op.build_chart"]), "ratio")
    metrics["gqvi.lp_per_minimax"] = (_ratio(
        work.get("gqvi.minimax_value.lp_calls", 0),
        calls["gqvi.minimax_value"]), "ratio")
    for name in ("lp.solve_lp.rows", "lp.solve_lp.not_optimal",
                 "gqvi.solve.iterations"):
        metrics[name] = (work.get(name, 0), "count")
    metrics["normal_op.usc_probe.hole_ratio"] = (_ratio(
        work.get("normal_op.usc_probe.holes", 0),
        work.get("normal_op.usc_probe.samples", 0)), "ratio")
    for name in (*IMPORT_MODULES, *IMPORT_ROOTS, "total"):
        metrics[f"setup.import.{name}_s"] = (imports.get(name, 0.0), "s")
    metrics["trace_overhead_frac"] = (statistics.median(overheads), "frac")
    return metrics


# -- main --------------------------------------------------------------------


def _fatal(message):
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def _load_program():
    """Import adjcone from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "adjcone", "__init__.py")):
        _fatal(f"no adjcone package under {SRC}")
    for name in ("step1d.json", "sq2d.json", "two_wells.json",
                 "moving_interval.json", "quasiopt_window1d.json"):
        if not os.path.isfile(os.path.join(INSTANCES, name)):
            _fatal(f"missing shipped instance {name}")
    sys.path.insert(0, SRC)
    import adjcone
    from adjcone import cli

    if not os.path.abspath(adjcone.__file__).startswith(SRC + os.sep):
        _fatal(f"adjcone imported from {adjcone.__file__}, not from {SRC}")
    return cli


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _load_program()
    make_pass = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    in_dir = os.path.join(run_dir, "in")
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(in_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    try:
        env = environment()
        setup = setup_slowdown = imports = tracer = None
        if args.trace == 0:
            setup, setup_slowdown = setup_seconds()
        else:
            imports = import_times()
            tracer = Tracer()

        runner = Runner(cli, args.workload, out_dir)
        latencies, pass_times, probes = [], [], []
        step_times, snapshots, overheads = [], [], []
        first_digests = None
        start = time.perf_counter()
        index = 0
        # Closed loop over whole passes: start the next one only if it
        # should end within the time, so every run holds complete passes.
        while True:
            step_start = time.perf_counter()
            commands = make_pass(args.seed, index, in_dir)
            lat, digests = runner.run_pass(commands, probes)
            latencies += lat
            pass_times.append(sum(lat))
            if first_digests is None:
                first_digests = list(zip(commands, digests))
            if tracer is not None:
                # The same inputs again, traced.
                tracer.install()
                missed = tracer.unpatched_bindings()
                if missed:
                    _fatal("tracer missed bindings: " + "; ".join(missed))
                tracer.reset()
                traced, _ = runner.run_pass(commands, [])
                tracer.uninstall()
                snapshots.append(tracer.snapshot())
                overheads.append(sum(traced) / sum(lat) - 1.0)
            step_times.append(time.perf_counter() - step_start)
            index += 1
            spent = time.perf_counter() - start
            if spent + statistics.median(step_times) > args.seconds:
                break
        env["loadavg_end"] = os.getloadavg()
        run_slowdown = slowdown(probes)
        env["slowdown_run"] = run_slowdown
        env["slowdown_setup"] = setup_slowdown
        runner.save_digests()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    run_digest = hashlib.sha256()
    for command, digest in first_digests:
        print(f"digest {(digest or 'none')[:16]} {command.label}")
        run_digest.update(f"{command.label}\0{digest}\n".encode())
    print(f"digest {run_digest.hexdigest()[:16]} pass 0 of {args.workload} "
          f"seed {args.seed}")
    for failure in runner.failures:
        print(f"FAILED {failure}")

    if tracer is None:
        metrics = end_to_end(runner.attempted, runner.failed, latencies,
                             pass_times, setup, run_slowdown, setup_slowdown)
        raw = end_to_end(runner.attempted, runner.failed, latencies,
                         pass_times, setup)
    else:
        metrics = per_layer(snapshots[0], snapshots, overheads, imports)
        raw = {}
    samples = {"pass_s": len(pass_times), "cmd_p50_ms": len(latencies),
               "cmd_p90_ms": len(latencies), "setup_s": SETUP_REPEATS}
    for name, (value, unit) in metrics.items():
        line = f"metric {name} = {value:.6g} {unit}"
        if name in samples:
            line += f"  n={samples[name]}  raw {raw[name][0]:.6g}"
        print(line)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

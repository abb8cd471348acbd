import importlib.util
import os
import sys

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def test_tracer_bindings_resolve(monkeypatch):
    # The benchmark's tracer looks functions up by name; a rename in the
    # package would break every traced run.  The self-test's binding
    # check installs the tracer, checks every target and every known
    # cross-module copy, and uninstalls; no workload runs.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "bench_selftest", os.path.join(BENCH, "selftest.py"))
    selftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(selftest)
    assert selftest.check_bindings() == []

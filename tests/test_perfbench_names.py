"""The names the benchmark's tracer patches must keep resolving.

``perfbench/tracer.py`` wraps public functions of ``satcover`` where their
callers look them up.  A rename or deletion there would otherwise show only
in the benchmark's own, slower self-test.
"""
import importlib.util
import sys
import types
from pathlib import Path

from satcover import cli, harness, procedures, solver

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores(monkeypatch):
    # numpy is the benchmark's extra, not the suite's: ``install`` and
    # ``restore`` never touch it, and the tracer's ``np.ndarray`` annotations
    # stay unevaluated strings, so an empty stand-in module will do
    monkeypatch.setitem(sys.modules, "numpy", types.ModuleType("numpy"))
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    owners = (cli, harness, procedures, solver, procedures.StateSnapshot)
    before = [dict(vars(owner)) for owner in owners]
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert t._patched
    finally:
        t.restore()
    assert [dict(vars(owner)) for owner in owners] == before

"""The benchmark in ``bench/`` wraps simulator functions by name.  A refactor
that renames or deletes one breaks the benchmark; this test catches that in
the ordinary suite, at the bench's tiny sizes."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    # run.py imports its neighbours ``refclock`` and ``tracer`` by bare name.
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("refclock", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", module)  # for its dataclasses
    spec.loader.exec_module(module)
    yield module
    for name in ("refclock", "tracer"):
        sys.modules.pop(name, None)


def _some_patched_names(prog):
    ctl = prog.controller
    return {
        "handle_flush": vars(ctl.Controller)["handle_flush"],
        "drain_all": vars(ctl.Controller)["drain_all"],
        "insert": vars(prog.counters.CounterCache)["insert"],
        "increment_minor": ctl.increment_minor,
        "run_transaction": prog.runner.run_transaction,
        "Controller": prog.crash.Controller,
    }


def test_tracer_and_probes_patch_and_restore_every_name(bench):
    prog = bench.load_program()
    originals = _some_patched_names(prog)
    for name in bench.WORKLOADS:
        wl = bench.make_workload(prog, name, 3, "tiny")
        wl.make_inputs()
        tracer = bench.Tracer()
        with bench.Probes(prog) as probes:
            rep = wl.rep(probes, bench.RefClock(), tracer)
        assert rep.failed == 0 and not rep.errors, (name, rep.errors)
        assert tracer.by_name()["controller.handle_flush"][0] > 0, name
    assert _some_patched_names(prog) == originals

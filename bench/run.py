#!/usr/bin/env python3
"""Host-time benchmark for secpmsim.

    python3 bench/run.py --workload btree-merge --seed 0 --seconds 10 --trace 0

Runs one workload from the root of a source checkout, against the package in
``src/``.  With ``--trace 0`` it prints every end-to-end metric; with
``--trace 1`` it prints the per-layer metrics of a separate traced repetition.
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(provenance, checks, digests) goes to ``.bench_out/`` in the checkout.  See
``bench/README.md`` for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from refclock import RefClock
from tracer import Patcher, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PINS = BENCH_DIR / "digests.json"

WORKLOADS = ("btree-merge", "hashtable-unsec", "crash-exhaustive")
# Work per repetition: transactions per core for the run workloads, lines in
# the crash transaction for crash-exhaustive.  "tiny" is the self-test size.
SIZES = {
    "full": {"btree-merge": 300, "hashtable-unsec": 3000, "crash-exhaustive": 64},
    "tiny": {"btree-merge": 8, "hashtable-unsec": 20, "crash-exhaustive": 4},
}
SETUP_REPEATS = 7
NEIGHBOURS = 2           # crash points pooled on each side (see CrashWorkload.op_ms)
READBACK_LAST_TXNS = 4   # per stream: every line of its last transactions...
READBACK_RANDOM = 32     # ...plus this many lines drawn from all it wrote

# name -> (unit, better); BENCHMARK.json lists the same names and units.
END_TO_END = {
    "flushes_per_s": ("1/s", "higher"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p95": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "sim_op_cycles_p50": ("cycles", "lower"),
    "sim_op_cycles_p95": ("cycles", "lower"),
    "nvm_writes_per_op": ("count", "lower"),
}

# Span names whose calls / self time / total time are per-layer metrics.
_CALLS = ("crypto.generate", "crypto.xor", "counters.serialize",
          "counters.deserialize", "counters.cache_lookup", "write_queue.append",
          "write_queue.cwr_merge", "write_queue.drain_one", "nvm.write",
          "nvm.read", "nvm.snapshot", "controller.handle_flush",
          "controller.handle_read", "controller.reencrypt", "controller.init",
          "txn.recover")
_SELF = ("crypto.generate", "crypto.xor", "counters.serialize",
         "counters.deserialize", "counters.increment_minor", "counters.locate",
         "counters.cache_lookup", "counters.cache_insert",
         "counters.dirty_entries", "write_queue.append", "write_queue.cwr_merge",
         "write_queue.atomic_append_pair", "write_queue.drain_one", "nvm.write",
         "nvm.read", "nvm.snapshot", "controller.handle_flush",
         "controller.handle_read", "controller.idle_drain",
         "controller.drain_all", "controller.init", "txn.recover",
         "txn.run_transaction", "runner.run_experiment")
_TOTAL = ("controller.reencrypt", "txn.recover", "txn.execute", "crash.fresh",
          "crash.replay", "crash.verify")
PER_LAYER = {
    **{f"{n}.calls": ("count", "lower") for n in _CALLS},
    **{f"{n}.self_s": ("s", "lower") for n in _SELF},
    **{f"{n}.total_s": ("s", "lower") for n in _TOTAL},
    "counters.cache_hit_rate": ("ratio", "higher"),
    "write_queue.merge_ratio": ("ratio", "higher"),
    "write_queue.depth_mean": ("entries", "lower"),
    "nvm.store_lines": ("lines", "lower"),
    "controller.flush_sim_cycles_p50": ("cycles", "lower"),
    "controller.flush_sim_cycles_p99": ("cycles", "lower"),
    "crash.points": ("count", "higher"),
    "crash.replay_flushes": ("count", "lower"),
    "workloads.generate_s": ("s", "lower"),
    "runner.txn_host_us_p50": ("us", "lower"),
    "runner.txn_host_us_p99": ("us", "lower"),
    "stats.emit_report_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
# Layers that must do no work on the unencrypted workload.
BYPASSED = ("crypto.generate", "crypto.xor", "counters.serialize",
            "counters.deserialize", "counters.increment_minor",
            "counters.locate", "counters.cache_lookup", "counters.cache_insert",
            "counters.dirty_entries", "write_queue.cwr_merge")

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import secpmsim.crash, secpmsim.runner, secpmsim.stats, secpmsim.workloads\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


def load_program() -> SimpleNamespace:
    """Import secpmsim from ``src/`` of this checkout, never from elsewhere."""
    if not (SRC / "secpmsim" / "__init__.py").is_file():
        raise BenchError(f"no secpmsim source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import secpmsim
    if Path(secpmsim.__file__).resolve().parent != SRC / "secpmsim":
        raise BenchError(f"secpmsim imported from {secpmsim.__file__}, not {SRC}")
    from secpmsim import (config, controller, counters, crash, crypto, nvm,
                          runner, stats, txn, workloads, write_queue)
    return SimpleNamespace(
        config=config, controller=controller, counters=counters, crash=crash,
        crypto=crypto, nvm=nvm, runner=runner, stats=stats, txn=txn,
        workloads=workloads, write_queue=write_queue)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# probes: always installed, untraced and traced alike

class Probes:
    """Light hooks that see controllers, transaction starts and recovered
    controllers.  They time no layer, so untraced runs stay untraced."""

    def __init__(self, prog: SimpleNamespace):
        self.controllers: list = []
        self.txn_starts: list[tuple[int, float]] = []
        self.recovered: list[tuple[float, int]] = []
        self.flushes = 0
        self._patcher = Patcher()
        self._prog = prog

    def reset(self) -> None:
        self.controllers.clear()
        self.txn_starts.clear()
        self.recovered.clear()
        self.flushes = 0

    def count_flushes(self) -> None:
        """Fold the flush counts of finished controllers into ``flushes``."""
        self.flushes += sum(c.flushes for c in self.controllers)
        self.controllers.clear()

    def __enter__(self) -> "Probes":
        prog, probes = self._prog, self

        class Registered(prog.controller.Controller):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probes.controllers.append(self)

        for module in (prog.runner, prog.crash, prog.txn):
            self._patcher.patch(module, "Controller", lambda _: Registered)
        self._patcher.patch(prog.runner, "run_transaction", self._txn_start)
        self._patcher.patch(prog.crash, "recover", self._recover)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    def _txn_start(self, fn):
        starts, clock = self.txn_starts, time.perf_counter

        def run_transaction(controller, txn):
            starts.append((txn.core, clock()))
            return fn(controller, txn)
        return run_transaction

    def _recover(self, fn):
        out = self.recovered

        def recover(snapshot, cfg):
            result = fn(snapshot, cfg)
            ctrl = result[0]
            out.append((ctrl.clock, ctrl.nvm.writes))
            return result
        return recover


# ----------------------------------------------------------------------
# tracing: installed around the traced repetition only

@contextlib.contextmanager
def traced(tracer: Tracer | None, prog: SimpleNamespace):
    if tracer is None:
        yield
        return
    patcher = Patcher()
    try:
        _install_tracer(tracer, patcher, prog)
        tracer.start()
        try:
            yield
        finally:
            tracer.stop()
    finally:
        patcher.restore()


def _install_tracer(tracer: Tracer, patcher: Patcher, prog: SimpleNamespace) -> None:
    ctl, ctr, wq, crash = prog.controller, prog.counters, prog.write_queue, prog.crash
    counts, samples = tracer.counts, tracer.samples
    replaying = [0]
    counter_origin = wq.Origin.COUNTER

    def lookup(fn):
        def probe(cache, address):
            line = fn(cache, address)
            if line is not None:
                counts["cache_hits"] += 1
            return line
        return probe

    def append(fn):
        def probe(queue, entry):
            counts["append_depth_sum"] += len(queue.entries)
            if entry.origin is counter_origin:
                counts["counter_appends"] += 1
            return fn(queue, entry)
        return probe

    def cwr_merge(fn):
        def probe(queue, incoming):
            merged = fn(queue, incoming)
            counts["merged"] += merged
            return merged
        return probe

    def snapshot(fn):
        def probe(*args, **kwargs):
            snap = fn(*args, **kwargs)
            samples["snapshot_lines"].append(len(snap.store))
            return snap
        return probe

    def handle_flush(fn):
        def probe(ctrl, address, plaintext, now=None):
            if replaying[0]:
                counts["replay_flushes"] += 1
            issue = ctrl.clock if now is None else now
            ack = fn(ctrl, address, plaintext, now)
            samples["flush_sim_cycles"].append((ack - issue) * ctrl.cfg.cpu_ghz)
            return ack
        return probe

    def replay(fn):
        def probe(scenario, ctrl):
            replaying[0] += 1
            try:
                return fn(scenario, ctrl)
            finally:
                replaying[0] -= 1
        return probe

    targets = [
        (prog.crypto.OtpEngine, "generate", "crypto.generate", None),
        (ctl, "encrypt_line", "crypto.xor", None),
        (ctl, "decrypt_line", "crypto.xor", None),
        (ctr.CounterLine, "serialize", "counters.serialize", None),
        (ctr.CounterLine, "deserialize", "counters.deserialize", None),
        (ctl, "increment_minor", "counters.increment_minor", None),
        (ctr.CounterAddressMap, "locate", "counters.locate", None),
        (ctr.CounterCache, "lookup", "counters.cache_lookup", lookup),
        (ctr.CounterCache, "insert", "counters.cache_insert", None),
        (ctr.CounterCache, "dirty_entries", "counters.dirty_entries", None),
        (wq.WriteQueue, "append", "write_queue.append", append),
        (wq.WriteQueue, "cwr_merge", "write_queue.cwr_merge", cwr_merge),
        (wq.WriteQueue, "atomic_append_pair", "write_queue.atomic_append_pair", None),
        (wq.WriteQueue, "drain_one", "write_queue.drain_one", None),
        (prog.nvm.NvmDevice, "nvm_write", "nvm.write", None),
        (prog.nvm.NvmDevice, "nvm_read", "nvm.read", None),
        (ctl, "take_crash_snapshot", "nvm.snapshot", snapshot),
        (ctl.Controller, "__init__", "controller.init", None),
        (ctl.Controller, "handle_flush", "controller.handle_flush", handle_flush),
        (ctl.Controller, "handle_read", "controller.handle_read", None),
        (ctl.Controller, "idle_drain", "controller.idle_drain", None),
        (ctl.Controller, "drain_all", "controller.drain_all", None),
        (ctl.Controller, "reencrypt_page", "controller.reencrypt", None),
        (ctl.Controller, "resume_reencryption", "controller.reencrypt", None),
        (crash, "recover", "txn.recover", None),
        (crash, "execute", "txn.execute", None),
        (crash, "count_boundaries", "crash.count_boundaries", None),
        (crash, "inject", "crash.inject", None),
        (prog.runner, "collect_stats", "runner.collect_stats", None),
        (prog.runner, "run_experiment", "runner.run_experiment", None),
        (prog.stats, "emit_report", "stats.emit_report", None),
    ]
    for scenario in (crash.TxnScenario, crash.ReencryptScenario):
        targets += [(scenario, "fresh", "crash.fresh", None),
                    (scenario, "run", "crash.replay", replay),
                    (scenario, "verify", "crash.verify", None)]
    for owner, attr, name, probe in targets:
        wrap = tracer.wrap(name)
        patcher.patch(owner, attr,
                      wrap if probe is None else (lambda fn, w=wrap, p=probe: w(p(fn))))
    patcher.patch(prog.runner, "run_transaction", tracer.wrap_txn(record=True))
    patcher.patch(crash, "run_transaction", tracer.wrap_txn(record=False))
    patcher.patch(prog.txn, "run_transaction", tracer.wrap_txn(record=False))


# ----------------------------------------------------------------------
# workloads

@dataclass
class Rep:
    """One repetition of a workload's timed phase, with its checks.

    ``spans`` are disjoint host intervals that together hold the timed work;
    ``op_spans`` are the host intervals of single operations.  Both come in
    the same order in every repetition of a workload."""

    spans: list[tuple[float, float]]
    ops: int
    flushes: int
    op_spans: list[tuple[float, float]]
    sim: dict[str, float]
    digests: dict[str, str]
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    store_lines: float = 0.0
    peak_rss_mib: float = field(
        default_factory=lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


class RunWorkload:
    """``runner.run_experiment`` over pre-generated streams."""

    def __init__(self, prog: SimpleNamespace, name: str, seed: int, size: str):
        per_core = SIZES[size][name]
        if name == "btree-merge":
            self.cfg = prog.config.Config(
                mode="secpm", workload="btree", txn_size=4096, txn_count=per_core,
                queue_len=32, cache_size=1 << 20, cache_ways=8, cores=1, seed=seed)
        else:
            self.cfg = prog.config.Config(
                mode="unsec-pm", workload="hashtable", txn_size=256,
                txn_count=per_core, queue_len=8, cache_size=1 << 20, cache_ways=8,
                cores=4, seed=seed)
        self.prog, self.seed = prog, seed
        self.streams: list | None = None
        self.expected: dict[int, bytes] = {}

    def cli_args(self) -> list[str]:
        """``secpmsim`` arguments that run the same experiment."""
        c = self.cfg
        return ["run", "--mode", c.mode, "--workload", c.workload,
                "--txn-size", str(c.txn_size), "--txn-count", str(c.txn_count),
                "--queue-len", str(c.queue_len), "--cache-size", str(c.cache_size),
                "--cores", str(c.cores), "--seed", str(c.seed)]

    @staticmethod
    def op_ms(reps: list[Rep], clock: RefClock) -> list[float]:
        """Per transaction gap, the median over repetitions."""
        return [s * 1e3 for s in pointwise(reps, "op_spans", clock)]

    def make_inputs(self) -> None:
        """The streams ``run_experiment`` would generate for this config."""
        wl = self.prog.workloads
        self.streams = None
        self.streams = [
            wl.generate(wl.WorkloadSpec.from_config(self.cfg, core=core,
                                                    seed=self.cfg.seed + core))
            for core in range(self.cfg.cores)
        ]

    def plan_readback(self) -> None:
        """Pick lines to read back: each stream's last transactions plus a
        seeded sample, skipping lines that more than one stream writes
        (their final value depends on the interleaving)."""
        finals = []
        owners: Counter = Counter()
        for stream in self.streams:
            final = {a: p for txn in stream for a, p in txn.write_set}
            finals.append(final)
            owners.update(final.keys())
        rng = random.Random(self.seed)
        self.expected = {}
        for stream, final in zip(self.streams, finals):
            picks = [a for txn in stream[-READBACK_LAST_TXNS:] for a, _ in txn.write_set]
            picks += rng.sample(sorted(final), min(READBACK_RANDOM, len(final)))
            self.expected.update((a, final[a]) for a in picks if owners[a] == 1)

    def rep(self, probes: Probes, clock: RefClock, tracer: Tracer | None = None) -> Rep:
        probes.reset()
        clock.sample()
        txns = sum(len(s) for s in self.streams)
        stats, errors = None, []
        with traced(tracer, self.prog):
            start = time.perf_counter()
            try:
                stats = self.prog.runner.run_experiment(self.cfg, self.streams)
            except Exception as exc:  # noqa: BLE001 - reported as a failed run
                errors.append(f"run_experiment raised {exc!r}")
            end = time.perf_counter()
            report = self.prog.stats.emit_report([stats]) if stats else ""
        marks = [start] + [t for _, t in probes.txn_starts] + [end]
        spans = list(zip(marks, marks[1:]))
        if stats is None:
            return Rep(spans, txns, 0, [], {}, {}, failed=txns, errors=errors)
        ctrl = probes.controllers[-1]
        if stats.otp_reuse:
            errors.append(f"otp_reuse = {stats.otp_reuse}")
        if stats.txn_count != txns:
            errors.append(f"{stats.txn_count} of {txns} transactions completed")
        bad = sum(ctrl.handle_read(a) != p for a, p in self.expected.items())
        if bad:
            errors.append(f"{bad} of {len(self.expected)} read-back lines differ")
        starts: dict[int, list[float]] = {}
        for core, t in probes.txn_starts:
            starts.setdefault(core, []).append(t)
        op_spans = [pair for ts in starts.values() for pair in zip(ts, ts[1:])]
        lat = stats.txn_latencies
        ghz = self.cfg.cpu_ghz
        sim = {"sim_op_cycles_p50": percentile(lat, 50) * ghz,
               "sim_op_cycles_p95": percentile(lat, 95) * ghz,
               "nvm_writes_per_op": stats.nvm_writes_total / stats.txn_count}
        return Rep(spans, stats.txn_count, ctrl.flushes, op_spans, sim,
                   {"report": sha256(report)}, failed=txns if errors else 0,
                   errors=errors, store_lines=len(ctrl.nvm.store))


class CrashWorkload:
    """Exhaustive ``crash.inject`` over a transaction scope and a page
    re-encryption scope, one new scenario per factory call (as the CLI)."""

    def __init__(self, prog: SimpleNamespace, name: str, seed: int, size: str):
        self.prog, self.seed, self.n_lines = prog, seed, SIZES[size][name]
        self.cfg = prog.config.Config(mode="secpm", txn_size=4096, queue_len=32,
                                      cache_size=1 << 20, cache_ways=8, seed=seed)
        self.scopes: list = []
        self.scope_points: list[int] = []

    def make_inputs(self) -> None:
        crash, cfg, seed, n = self.prog.crash, self.cfg, self.seed, self.n_lines
        self.scopes = [
            ("txn", lambda: crash.TxnScenario(cfg, n_lines=n, seed=seed)),
            ("reencrypt", lambda: crash.ReencryptScenario(cfg, seed=seed)),
        ]

    def plan_readback(self) -> None:
        pass  # each scenario's verify reads its lines back after recovery

    def op_ms(self, reps: list[Rep], clock: RefClock) -> list[float]:
        """Per crash point, the median over passes of its time and of its
        NEIGHBOURS nearest points on each side in the same scope.  A point's
        cost changes smoothly with its index, and three passes alone would
        leave the tail percentiles to one burst of contention."""
        times = [[clock.seconds(a, b) * 1e3 for a, b in r.op_spans] for r in reps]
        out, start = [], 0
        for n in self.scope_points:
            for i in range(start, start + n):
                lo, hi = max(start, i - NEIGHBOURS), min(start + n, i + NEIGHBOURS + 1)
                out.append(statistics.median(t for row in times for t in row[lo:hi]))
            start += n
        return out

    def rep(self, probes: Probes, clock: RefClock, tracer: Tracer | None = None) -> Rep:
        crash = self.prog.crash
        probes.reset()
        clock.sample()
        outcomes, spans, op_spans, errors = {}, [], [], []
        with traced(tracer, self.prog):
            for scope, make in self.scopes:
                marks: list[float] = []   # start, end, start, end, ...

                def factory(scope=scope, make=make, marks=marks):
                    # Each call ends the previous unit of work and starts the
                    # next: call 0 counts the boundaries, calls 1.. are the
                    # crash points -1, 0, ...  The reference kernel runs
                    # between the two marks, outside both units.
                    if marks:
                        marks.append(time.perf_counter())
                    probes.count_flushes()
                    clock.sample(force=False)
                    if tracer is not None:
                        i = len(marks) // 2
                        tracer.begin_point(f"{scope}:count" if i == 0 else f"{scope}:{i - 2}")
                    marks.append(time.perf_counter())
                    return make()

                if tracer is not None:
                    factory = tracer.wrap("bench.factory")(factory)
                try:
                    outcomes[scope] = crash.inject(crash.CrashPlan("exhaustive", seed=self.seed),
                                                   factory)
                except Exception as exc:  # noqa: BLE001 - reported as a failed pass
                    errors.append(f"{scope}: inject raised {exc!r}")
                marks.append(time.perf_counter())
                if tracer is not None:
                    tracer.end_point()
                units = list(zip(marks[::2], marks[1::2]))
                spans += units
                op_spans += units[1:]
        clock.sample()
        probes.count_flushes()
        points = sum(len(o) for o in outcomes.values())
        self.scope_points = [len(o) for o in outcomes.values()]
        if errors:
            ops = max(len(op_spans), 1)
            return Rep(spans, ops, probes.flushes, op_spans, {}, {}, failed=ops,
                       errors=errors)
        inconsistent = sum(not o.verdict.ok for out in outcomes.values() for o in out)
        clocks = [c for c, _ in probes.recovered]
        ghz = self.cfg.cpu_ghz
        sim = {"sim_op_cycles_p50": percentile(clocks, 50) * ghz,
               "sim_op_cycles_p95": percentile(clocks, 95) * ghz,
               "nvm_writes_per_op": sum(w for _, w in probes.recovered) / points}
        digests = {scope: sha256("".join(
            f"{o.crash_point},{o.label},{o.stage},{o.verdict.value},"
            f"{'' if o.failing_address is None else f'{o.failing_address:#x}'}\n"
            for o in out)) for scope, out in outcomes.items()}
        return Rep(spans, points, probes.flushes, op_spans, sim, digests,
                   failed=inconsistent, errors=errors)


def make_workload(prog: SimpleNamespace, name: str, seed: int, size: str):
    cls = CrashWorkload if name == "crash-exhaustive" else RunWorkload
    return cls(prog, name, seed, size)


# ----------------------------------------------------------------------
# measurement

def import_seconds() -> float:
    """Import time of the simulator in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE, str(SRC)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip())


def measure_setup(wl, clock: RefClock) -> tuple[float, float]:
    """Median calibrated set-up time (imports plus input generation) and
    median raw generation time over SETUP_REPEATS set-ups; the last inputs
    stay in ``wl``."""
    runs = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        start = time.perf_counter()
        imported = import_seconds()
        mid = time.perf_counter()
        wl.make_inputs()
        runs.append((start, mid, imported, time.perf_counter()))
    clock.sample()
    totals = [clock.seconds(start, mid, imported) + clock.seconds(mid, end)
              for start, mid, imported, end in runs]
    return statistics.median(totals), statistics.median(end - mid for _, mid, _, end in runs)


def repeat(fn, budget: float, at_least: int) -> list[Rep]:
    """Run ``fn`` until ``budget`` seconds have passed, at least ``at_least``
    times (three, so that a place-by-place median has a middle)."""
    reps, begin = [], time.perf_counter()
    while len(reps) < at_least or time.perf_counter() - begin < budget:
        reps.append(fn())
    return reps


def load_pins(name: str, seed: int, size: str) -> dict[str, str] | None:
    if size != "full" or not PINS.is_file():
        return None
    pins = json.loads(PINS.read_text())
    return pins["digests"].get(name, {}).get(str(seed))


def judge(reps: list[Rep], pinned: dict[str, str] | None) -> tuple[int, int, dict]:
    """Mark whole repetitions failed on a digest or determinism mismatch."""
    reference = pinned if pinned is not None else reps[0].digests
    for rep in reps:
        if not rep.errors and rep.digests != reference:
            rep.errors.append("output digest differs from "
                              + ("the pinned one" if pinned is not None else "the first run"))
            rep.failed = rep.ops
    sims = [rep.sim for rep in reps if not rep.errors]
    checks = {
        "digest_pin": "unpinned" if pinned is None else
                      ("match" if all(r.digests == pinned for r in reps) else "mismatch"),
        "digests_repeat": all(r.digests == reps[0].digests for r in reps),
        "sim_repeat": all(s == sims[0] for s in sims),
        "errors": sorted({e for r in reps for e in r.errors}),
    }
    return sum(r.ops for r in reps), sum(r.failed for r in reps), checks


def pointwise(reps: list[Rep], attr: str, clock: RefClock) -> list[float]:
    """Calibrated seconds of each span, as the median over repetitions of
    the span in the same place.  The machine's speed changes from one
    moment to the next; taking the median place by place keeps a burst of
    contention in one repetition out of every figure."""
    cols = zip(*([clock.seconds(a, b) for a, b in getattr(r, attr)] for r in reps))
    return [statistics.median(col) for col in cols]


def end_to_end(wl, reps: list[Rep], clock: RefClock, setup_s: float) -> dict[str, float]:
    sim = next((r.sim for r in reps if r.sim), {})
    elapsed = sum(pointwise(reps, "spans", clock))
    op_ms = wl.op_ms(reps, clock) or [0.0]
    return {
        "flushes_per_s": reps[0].flushes / elapsed,
        "ops_per_s": reps[0].ops / elapsed,
        "op_ms_p50": percentile(op_ms, 50),
        "op_ms_p95": percentile(op_ms, 95),
        "setup_s": setup_s,
        # after the first repetition, before the benchmark's own records grow
        "peak_rss_mib": reps[0].peak_rss_mib,
        **{m: sim.get(m, 0.0) for m in ("sim_op_cycles_p50", "sim_op_cycles_p95",
                                          "nvm_writes_per_op")},
    }


def calibrated(rep: Rep, clock: RefClock) -> float:
    return sum(clock.seconds(a, b) for a, b in rep.spans)


def per_layer(tracer: Tracer, rep: Rep, untraced: list[Rep], clock: RefClock,
              gen_s: float, name: str) -> dict[str, float]:
    spans = tracer.by_name()
    counts, samples = tracer.counts, tracer.samples
    metrics = {}
    for metric in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind in ("calls", "self_s", "total_s"):
            calls, total, self_s = spans.get(span, (0, 0.0, 0.0))
            metrics[metric] = {"calls": calls, "self_s": self_s, "total_s": total}[kind]
    lookups = metrics["counters.cache_lookup.calls"]
    flush_cycles = samples["flush_sim_cycles"] or [0.0]
    txn_us = [s * 1e6 for s in samples["txn_host_s"]] or [0.0]
    snap_lines = samples["snapshot_lines"]
    metrics.update({
        "counters.cache_hit_rate": counts["cache_hits"] / lookups if lookups else 0.0,
        "write_queue.merge_ratio":
            counts["merged"] / counts["counter_appends"] if counts["counter_appends"] else 0.0,
        "write_queue.depth_mean":
            counts["append_depth_sum"] / metrics["write_queue.append.calls"]
            if metrics["write_queue.append.calls"] else 0.0,
        "nvm.store_lines": statistics.fmean(snap_lines) if snap_lines else rep.store_lines,
        "controller.flush_sim_cycles_p50": percentile(flush_cycles, 50),
        "controller.flush_sim_cycles_p99": percentile(flush_cycles, 99),
        "crash.points": rep.ops if name == "crash-exhaustive" else 0,
        "crash.replay_flushes": counts["replay_flushes"],
        "workloads.generate_s": gen_s if name != "crash-exhaustive" else 0.0,
        "runner.txn_host_us_p50": percentile(txn_us, 50),
        "runner.txn_host_us_p99": percentile(txn_us, 99),
        "stats.emit_report_s": spans.get("stats.emit_report", (0, 0.0, 0.0))[1],
        "trace.overhead_frac":
            calibrated(rep, clock) / statistics.median(calibrated(r, clock) for r in untraced) - 1,
    })
    return metrics


def trace_checks(tracer: Tracer, traced_rep: Rep, untraced: list[Rep],
                 name: str) -> dict:
    spans = tracer.by_name()
    consistency = tracer.consistency()
    checks = {"consistency": consistency,
              # every handle_flush the untraced run counted, and no other
              "flush_count": spans.get("controller.handle_flush", (0,))[0]
                             == traced_rep.flushes == untraced[0].flushes}
    if name == "hashtable-unsec":
        busy = {n: spans[n][0] for n in BYPASSED if n in spans}
        checks["bypass"] = {"ok": not busy, "calls": busy}
    return checks


def provenance(name: str, seed: int, trace: bool, seconds: int) -> dict:
    import cryptography
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    return {
        "workload": name, "seed": seed, "traced": trace, "run_seconds": seconds,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "git_commit": commit,
        "sim_caches": "empty at the start of every repetition",
        "model": "unvalidated: no reference results for the modelled hardware",
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """Run one workload; returns the result record (see ``main``)."""
    prog = load_program()
    wl = make_workload(prog, name, seed, size)
    clock = RefClock()
    setup_s, gen_s = measure_setup(wl, clock)
    wl.plan_readback()
    result: dict = {"provenance": provenance(name, seed, trace, seconds)}
    with Probes(prog) as probes:
        if not trace:
            reps = repeat(lambda: wl.rep(probes, clock), seconds, at_least=3)
            clock.sample()
            metrics = end_to_end(wl, reps, clock, setup_s)
            units = {m: END_TO_END[m][0] for m in metrics}
        else:
            untraced = repeat(lambda: wl.rep(probes, clock), seconds / 2, at_least=1)
            tracer = Tracer()
            traced_rep = wl.rep(probes, clock, tracer)
            clock.sample()
            reps = untraced + [traced_rep]
            metrics = per_layer(tracer, traced_rep, untraced, clock, gen_s, name)
            units = {m: PER_LAYER[m][0] for m in metrics}
            result["trace_checks"] = trace_checks(tracer, traced_rep, untraced, name)
            result["spans"] = tracer
    attempted, failed, checks = judge(reps, load_pins(name, seed, size))
    trace_ok = all(c["ok"] if isinstance(c, dict) else c
                   for c in result.get("trace_checks", {}).values())
    result["raw"] = {
        "rep_s": [sum(b - a for a, b in r.spans) for r in reps],
        "ref_kernel_s": statistics.median(clock.durations),
        "ref_samples": len(clock.durations),
    }
    result.update(
        # a digest mismatch or a non-repeating digest is among the errors
        correct=failed == 0 and not checks["errors"] and checks["sim_repeat"] and trace_ok,
        attempted=attempted, failed=failed, metrics=metrics, units=units,
        checks=checks, digests=reps[0].digests, reps=len(reps),
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("spans", None)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    for metric, value in result["metrics"].items():
        print(f"{metric:36s} {value:>18.6f} {result['units'][metric]}")
    print("provenance:", json.dumps(result["provenance"]))
    print("checks:", json.dumps({**result["checks"], **result.get("trace_checks", {})}))
    print("digests:", json.dumps(result["digests"]), f"({result['reps']} repetitions)")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": result["units"][m]}
                    for m, v in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

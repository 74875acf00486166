#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Checks that every workload reports every metric of ``BENCHMARK.json`` with
its unit, that two back-to-back runs give identical simulated metrics and
digests, that the traced run passes its consistency and bypass checks, that
the run workloads' reports equal what ``secpmsim run`` prints, and that the
benchmark refuses to run without the source tree.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest

import run

SEED = 3
SIM = ("sim_op_cycles_p50", "sim_op_cycles_p95", "nvm_writes_per_op")


def tiny(name: str, trace: bool) -> dict:
    result = run.measure(name, SEED, 1, trace, size="tiny")
    result.pop("spans", None)
    return result


class BenchmarkJson(unittest.TestCase):
    def test_metric_tables_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         run.PER_LAYER)


class Workloads(unittest.TestCase):
    def check_untraced(self, name: str) -> None:
        first, second = tiny(name, False), tiny(name, False)
        for result in (first, second):
            self.assertTrue(result["correct"], result["checks"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(result["units"], {m: u for m, (u, _) in run.END_TO_END.items()})
            self.assertTrue(all(v > 0 for v in result["metrics"].values()), result["metrics"])
            self.assertEqual(result["provenance"]["seed"], SEED)
        self.assertEqual(first["digests"], second["digests"])
        self.assertEqual({m: first["metrics"][m] for m in SIM},
                         {m: second["metrics"][m] for m in SIM})

    def check_traced(self, name: str) -> dict:
        result = tiny(name, True)
        self.assertTrue(result["correct"], (result["checks"], result["trace_checks"]))
        self.assertEqual(result["units"], {m: u for m, (u, _) in run.PER_LAYER.items()})
        self.assertTrue(result["trace_checks"]["consistency"]["ok"])
        self.assertTrue(result["trace_checks"]["flush_count"])
        return result

    def test_btree_merge(self):
        self.check_untraced("btree-merge")
        metrics = self.check_traced("btree-merge")["metrics"]
        self.assertGreater(metrics["write_queue.merge_ratio"], 0.9)
        self.assertGreater(metrics["crypto.generate.calls"], 0)

    def test_hashtable_unsec(self):
        self.check_untraced("hashtable-unsec")
        result = self.check_traced("hashtable-unsec")
        self.assertTrue(result["trace_checks"]["bypass"]["ok"])
        for span in run.BYPASSED:
            if f"{span}.calls" in result["metrics"]:
                self.assertEqual(result["metrics"][f"{span}.calls"], 0)

    def test_crash_exhaustive(self):
        self.check_untraced("crash-exhaustive")
        metrics = self.check_traced("crash-exhaustive")["metrics"]
        self.assertGreater(metrics["crash.points"], 0)
        self.assertGreater(metrics["crash.replay_flushes"], 0)
        self.assertGreater(metrics["txn.recover.calls"], 0)


class MatchesCli(unittest.TestCase):
    def test_run_reports_equal_cli_output(self):
        prog = run.load_program()
        from secpmsim import cli
        for name in ("btree-merge", "hashtable-unsec"):
            wl = run.make_workload(prog, name, SEED, "tiny")
            wl.make_inputs()
            with run.Probes(prog) as probes:
                rep = wl.rep(probes, run.RefClock())
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                self.assertEqual(cli.main(wl.cli_args()), 0)
            self.assertEqual(run.sha256(out.getvalue()), rep.digests["report"], name)


class WithoutSource(unittest.TestCase):
    def test_refuses_to_run(self):
        bare = run.OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH_DIR, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "btree-merge",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()

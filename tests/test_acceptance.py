"""End-to-end acceptance checks.

Each test covers one headline claim that no other test states and records
a single PASS/FAIL line, echoed in the terminal summary so a full run reads
as a checklist.  Tolerances are pinned in the asserts; analytic counts are
exact.  The other criteria each have one home: the recoverability tables
(3), the staging register (4) and page re-encryption (9) are cases of the
crash matrix in ``test_crash.py``, the round trip (10a) is the XOR and pad
references of ``test_crypto.py``, and determinism (10d) is the pinned
outputs of ``test_golden.py`` and the determinism tests of ``test_cli.py``.
"""

import functools
import random

import _acceptance_log

from secpmsim.config import COUNTER_REGION_BASE, Config, TXN_SIZES, WORKLOADS
from secpmsim.controller import Controller
from secpmsim.runner import run_experiment
from secpmsim.stats import reduction_percentage

SEED = 1


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    _acceptance_log.LINES.append(line)
    assert ok, line


def run(mode, workload, txn_size, txn_count, **kw):
    return _run(Config(mode=mode, workload=workload, txn_size=txn_size,
                       txn_count=txn_count, seed=SEED, **kw))


@functools.cache
def _run(cfg):
    """Each cell once per session: test 02's cells are a subset of test 06's,
    and test 08's are test 07's at the default queue length."""
    return run_experiment(cfg)


def test_01_full_page_write_counts():
    """One fully flushed 4 KiB page: 128 line writes without merging,
    64 data + 1 surviving counter = 65 with merging (unbounded queue)."""
    counts = {}
    for mode in ("secpm-no-cwr", "secpm"):
        cfg = Config(mode=mode, workload="array", txn_size=64,
                     txn_count=1, queue_len=256, seed=SEED)
        ctrl = Controller(cfg)
        for i in range(64):
            ctrl.handle_flush(i * 64, bytes([i]) * 64)
        ctrl.drain_all()
        counts[mode] = ctrl.nvm.writes
    ok = counts == {"secpm-no-cwr": 128, "secpm": 65}
    report("1 full-page write counts", ok,
           f"no-merge={counts['secpm-no-cwr']} (want 128), "
           f"merge={counts['secpm']} (want 65)")


def test_02_write_amplification_is_exactly_double():
    """Counter-per-data write-through doubles NVM writes exactly, on every
    workload and size, absent re-encryption."""
    worst = None
    for workload in WORKLOADS:
        for size in TXN_SIZES:
            base = run("unsec-pm", workload, size, 200)
            enc = run("secpm-no-cwr", workload, size, 200)
            assert enc.reencryptions == 0
            ratio = enc.nvm_writes_total / base.nvm_writes_total
            if worst is None or abs(ratio - 2.0) > abs(worst[0] - 2.0):
                worst = (ratio, workload, size)
            if ratio != 2.0:
                break
    ok = worst[0] == 2.0
    report("2 write amplification", ok,
           f"ratio={worst[0]:.6f} at {worst[1]}/{worst[2]}B (want 2.000000)")


def test_05_merge_reduction_grows_with_txn_size():
    """Counter-write reduction is non-decreasing in transaction size for
    every workload and reaches at least 85% at 4 KiB (10^4 txns per
    workload, split over the four sizes)."""
    ok = True
    details = []
    for workload in WORKLOADS:
        reds = [reduction_percentage(run("secpm", workload, size, 2500))
                for size in TXN_SIZES]
        monotone = all(reds[i] <= reds[i + 1] + 1e-12 for i in range(3))
        floor = reds[-1] >= 0.85
        ok = ok and monotone and floor
        details.append(f"{workload}=[{', '.join(f'{r:.3f}' for r in reds)}]")
    report("5 reduction vs txn size", ok,
           "; ".join(details) + " (want non-decreasing, 4KiB >= 0.85)")


def test_06_latency_ordering_and_speedup_band():
    """Mean txn latency: plain <= full scheme < no-merging everywhere, and
    the no-merging/full-scheme ratio at 1 KiB lies in [1.2, 3.0]."""
    ok = True
    ratios = []
    for workload in WORKLOADS:
        for size in TXN_SIZES:
            lat = {m: run(m, workload, size, 200).mean_txn_latency_ns
                   for m in ("unsec-pm", "secpm", "secpm-no-cwr")}
            ordered = lat["unsec-pm"] <= lat["secpm"] < lat["secpm-no-cwr"]
            ok = ok and ordered
            if size == 1024:
                ratio = lat["secpm-no-cwr"] / lat["secpm"]
                ratios.append((workload, ratio))
                ok = ok and 1.2 <= ratio <= 3.0
    report("6 latency ordering", ok,
           "1KiB ratios " +
           ", ".join(f"{w}={r:.2f}" for w, r in ratios) +
           " (want ordering everywhere, ratios in [1.2, 3.0])")


def test_07_longer_queues_merge_more():
    """Reduction percentage is non-decreasing in queue length."""
    ok = True
    details = []
    for workload in WORKLOADS:
        reds = [reduction_percentage(
                    run("secpm", workload, 1024, 300, queue_len=q))
                for q in (8, 16, 32, 64, 128)]
        monotone = all(reds[i] <= reds[i + 1] + 1e-12 for i in range(4))
        ok = ok and monotone
        details.append(f"{workload}=[{', '.join(f'{r:.3f}' for r in reds)}]")
    report("7 queue-length sensitivity", ok,
           "; ".join(details) + " (want non-decreasing)")


def test_08_counter_cache_locality_ordering():
    """Clustered structures (fifo ring, B-tree) out-hit scattered ones
    (array swaps, hash buckets, red-black nodes) at a 1 MiB cache."""
    hits = {w: run("secpm", w, 1024, 300).cache_hit_rate for w in WORKLOADS}
    good = min(hits["queue"], hits["btree"])
    bad = max(hits["array"], hits["hashtable"], hits["rbtree"])
    ok = good > bad
    report("8 cache locality ordering", ok,
           ", ".join(f"{w}={r:.3f}" for w, r in hits.items()) +
           f" (want min(queue,btree)={good:.3f} > "
           f"max(array,hashtable,rbtree)={bad:.3f})")


def test_10b_otp_tuples_never_repeat():
    """No (address, counter) pad input is ever reused for encryption over
    a full workload run, nor across a counter overflow + re-encryption."""
    stats = run("secpm", "hashtable", 256, 500)
    reuse_run = stats.otp_reuse

    cfg = Config(mode="secpm", workload="array", txn_size=64,
                 txn_count=1, queue_len=64, seed=SEED)
    ctrl = Controller(cfg)
    for i in range(130):
        ctrl.handle_flush(0, bytes([i % 256]) * 64)  # forces re-encryption
    ok = reuse_run == 0 and ctrl.otp_reuse == 0 and ctrl.reencryptions == 1
    report("10b pad-input uniqueness", ok,
           f"workload-run reuse={reuse_run}, overflow-run reuse="
           f"{ctrl.otp_reuse} across {ctrl.reencryptions} re-encryption "
           "(want 0 reuse)")


def test_10c_merge_oracle_equivalence_bulk():
    """Final durable counter-region bytes are identical with and without
    merging over 10^3 random flush traces."""
    small_cache = 64 * 64 * 8  # keep per-trace setup cheap
    mismatches = 0
    rng = random.Random(SEED)
    for _ in range(1000):
        trace = [(rng.randrange(128) * 64, rng.randbytes(64))
                 for _ in range(30)]
        finals = []
        for mode in ("secpm", "secpm-no-cwr"):
            cfg = Config(mode=mode, workload="array", txn_size=64,
                         txn_count=1, queue_len=16, cache_size=small_cache,
                         seed=SEED)
            ctrl = Controller(cfg)
            for addr, payload in trace:
                ctrl.handle_flush(addr, payload)
            ctrl.drain_all()
            finals.append({a: p for a, p in ctrl.nvm.store.items()
                           if a >= COUNTER_REGION_BASE})
        if finals[0] != finals[1]:
            mismatches += 1
    report("10c merge-oracle equivalence", mismatches == 0,
           f"{mismatches}/1000 traces diverged (want 0)")

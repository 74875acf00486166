"""End-to-end acceptance checks.

Each test covers one headline claim and records a single PASS/FAIL line,
echoed in the terminal summary so a full run reads as a checklist.
Tolerances are pinned in the asserts; analytic counts are exact.
"""

import functools
import random

import _acceptance_log

from secpmsim.config import COUNTER_REGION_BASE, Config, TXN_SIZES, WORKLOADS
from secpmsim.controller import Controller
from secpmsim.crash import (
    AtomicWriteScenario,
    CrashPlan,
    ReencryptScenario,
    TxnScenario,
    Verdict,
    inject,
)
from secpmsim.crypto import OtpEngine, decrypt_line, encrypt_line
from secpmsim.runner import run_experiment
from secpmsim.stats import emit_report, reduction_percentage

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


def test_03_transaction_recoverability_tables():
    """Exhaustive crash sweep on a 4-line transaction: the write-back
    baseline tears state in mutate and commit but never in prepare; the
    full scheme never tears at all."""
    def sweep(mode):
        cfg = Config(mode=mode, workload="array", txn_size=256,
                     txn_count=1, seed=SEED)
        return inject(CrashPlan("exhaustive"),
                      lambda: TxnScenario(cfg, n_lines=4))

    broken = sweep("secpm-no-cwt")
    bad_stages = {o.stage for o in broken if o.verdict is Verdict.INCONSISTENT}
    full = sweep("secpm")
    full_bad = sum(1 for o in full if o.verdict is Verdict.INCONSISTENT)
    ok = ("mutate" in bad_stages and "commit" in bad_stages
          and "prepare" not in bad_stages and full_bad == 0)
    report("3 recoverability tables", ok,
           f"write-back torn stages={sorted(bad_stages)} "
           f"(want mutate+commit, not prepare); "
           f"full-scheme inconsistent={full_bad}/{len(full)} (want 0)")


def test_04_staging_register_atomicity():
    """Logless single-line write: without the two-line register a crash
    between counter and data appends is undecryptable; with it, never."""
    def sweep(use_register):
        cfg = Config(mode="secpm", workload="array", txn_size=64,
                     txn_count=1, seed=SEED, use_register=use_register)
        return inject(CrashPlan("exhaustive"),
                      lambda: AtomicWriteScenario(cfg))

    without = sum(1 for o in sweep(False) if o.verdict is Verdict.INCONSISTENT)
    with_reg = sum(1 for o in sweep(True) if o.verdict is Verdict.INCONSISTENT)
    ok = without >= 1 and with_reg == 0
    report("4 staging-register atomicity", ok,
           f"torn without register={without} (want >=1), "
           f"with register={with_reg} (want 0)")


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


def test_09_page_reencryption_crash_consistency():
    """Exhaustive crash sweep across a full page re-encryption (all 64
    line boundaries): every line decrypts to its crash-free value."""
    cfg = Config(mode="secpm", workload="array", txn_size=64,
                 txn_count=1, seed=SEED)
    outcomes = inject(CrashPlan("exhaustive"), lambda: ReencryptScenario(cfg))
    bad = sum(1 for o in outcomes if o.verdict is not Verdict.CONSISTENT)
    line_points = sum(1 for o in outcomes if o.label == "reencrypt_line")
    ok = bad == 0 and line_points >= 64
    report("9 re-encryption consistency", ok,
           f"inconsistent={bad}/{len(outcomes)} crash points "
           f"({line_points} per-line boundaries; want 0 inconsistent)")


def test_10a_encryption_round_trip_volume():
    engine = OtpEngine(bytes(range(16)))
    rng = random.Random(SEED)
    bad = 0
    for _ in range(100_000):
        plain = rng.randbytes(64)
        pad = engine.generate(rng.randrange(1 << 34) * 64,
                              rng.randrange(1 << 71))
        if decrypt_line(encrypt_line(plain, pad), pad) != plain:
            bad += 1
    report("10a round-trip volume", bad == 0,
           f"{bad}/100000 failures (want 0)")


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


def test_10d_seeded_runs_are_byte_identical():
    cfg = Config(mode="secpm", workload="btree", txn_size=1024,
                 txn_count=100, seed=SEED)
    a = emit_report([run_experiment(cfg)])
    b = emit_report([run_experiment(cfg)])
    report("10d determinism", a == b,
           f"report bytes {'identical' if a == b else 'differ'} "
           f"({len(a)} bytes)")

from collections import deque

from secpmsim.config import Config
from secpmsim.controller import Controller
from secpmsim.runner import collect_stats, run_experiment
from secpmsim.stats import emit_report
from secpmsim.txn import run_transaction
from secpmsim.workloads import WorkloadSpec, generate


def cfg_for(**kw):
    kw.setdefault("mode", "secpm")
    kw.setdefault("workload", "hashtable")
    kw.setdefault("txn_size", 256)
    kw.setdefault("txn_count", 30)
    return Config(**kw)


def test_single_core_run_accounts_every_txn():
    cfg = cfg_for()
    stats = run_experiment(cfg)
    assert stats.txn_count == cfg.txn_count
    assert len(stats.txn_latencies) == cfg.txn_count
    assert stats.nvm_writes_total > 0
    stats.check_accounting()


def test_multi_core_runs_all_streams():
    cfg = cfg_for(cores=4, txn_count=10)
    stats = run_experiment(cfg)
    assert stats.txn_count == 4 * 10
    stats.check_accounting()


def test_more_cores_do_more_total_work():
    one = run_experiment(cfg_for(cores=1, txn_count=20))
    four = run_experiment(cfg_for(cores=4, txn_count=20))
    assert four.nvm_writes_total > one.nvm_writes_total


def test_zero_txn_run_is_empty_but_valid():
    stats = run_experiment(cfg_for(txn_count=0))
    assert stats.txn_count == 0
    assert stats.mean_txn_latency_ns == 0.0


def _round_robin(cfg, streams):
    """Reference interleave: every core that has a step left takes a turn,
    to the end of the last stream."""
    ctrl = Controller(cfg)
    latencies = []

    def steps(stream):
        for txn in stream:
            start = ctrl.clock
            yield from run_transaction(ctrl, txn)
            latencies.append(ctrl.clock - start)
            if cfg.txn_gap_ns > 0:
                ctrl.idle_drain(cfg.txn_gap_ns)
            yield

    done = object()
    ready = deque(steps(stream) for stream in streams)
    while ready:
        gen = ready.popleft()
        if next(gen, done) is not done:
            ready.append(gen)
    ctrl.drain_all()
    return collect_stats(ctrl, cfg, latencies)


def test_uneven_streams_match_the_round_robin_reference():
    """Once two cores have finished, the third runs its stream alone; the
    report and every latency equal those of strict round-robin turns."""
    cfg = cfg_for(cores=3, txn_count=12, queue_len=4)

    def streams():
        return [generate(WorkloadSpec.from_config(cfg, core=core,
                                                  seed=cfg.seed + core))[:n]
                for core, n in enumerate((5, 12, 8))]

    got, want = run_experiment(cfg, streams()), _round_robin(cfg, streams())
    assert got.txn_latencies == want.txn_latencies
    assert emit_report([got]) == emit_report([want])

"""Experiment driver: generate streams, run them through a controller,
collect stats.  Multi-core runs interleave one flush per core round-robin
over the shared controller, matching a deterministic (timestamp,
requester-id) order.
"""

from __future__ import annotations

from secpmsim.config import Config
from secpmsim.controller import Controller
from secpmsim.stats import RunStats
from secpmsim.txn import TxnDescriptor, run_transaction
from secpmsim.workloads import WorkloadSpec, generate


def run_experiment(cfg: Config, streams: list[list[TxnDescriptor]] | None = None
                   ) -> RunStats:
    cfg.validate()
    if streams is None:
        streams = [
            generate(WorkloadSpec.from_config(cfg, core=core, seed=cfg.seed + core))
            for core in range(cfg.cores)
        ]
    ctrl = Controller(cfg)
    latencies: list[float] = []

    # Per-core cursors: (iterator over txns, active generator, start time)
    cursors = []
    for stream in streams:
        it = iter(stream)
        cursors.append([it, None, 0.0])

    active = len(cursors)
    while active:
        active = 0
        for cursor in cursors:
            it, gen, start = cursor
            if gen is None:
                txn = next(it, None)
                if txn is None:
                    continue
                cursor[1] = run_transaction(ctrl, txn)
                cursor[2] = ctrl.clock
            try:
                next(cursor[1])
            except StopIteration:
                latencies.append(ctrl.clock - cursor[2])
                cursor[1] = None
                if cfg.txn_gap_ns > 0:
                    ctrl.idle_drain(cfg.txn_gap_ns)
            active += 1

    ctrl.drain_all()
    return collect_stats(ctrl, cfg, latencies)


def collect_stats(ctrl: Controller, cfg: Config, latencies: list[float]
                  ) -> RunStats:
    stats = RunStats(
        cfg,
        data_writes=ctrl.queue.appended_data,
        counter_writes_appended=ctrl.queue.appended_counter,
        counter_writes_merged=ctrl.queue.merged,
        nvm_writes_total=ctrl.nvm.writes,
        cache_hits=ctrl.cache.hits,
        cache_misses=ctrl.cache.misses,
        reencryptions=ctrl.reencryptions,
        otp_reuse=ctrl.otp_reuse,
        txn_count=len(latencies),
        sim_time_ns=ctrl.clock,
        txn_latencies=latencies,
    )
    stats.check_accounting()
    return stats

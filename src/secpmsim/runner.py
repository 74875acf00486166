"""Experiment driver: generate streams, run them through a controller,
collect stats.  Multi-core runs interleave one flush per core round-robin
over the shared controller, matching a deterministic (timestamp,
requester-id) order; once one core is left, it runs its stream to the end
without taking turns.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from secpmsim.config import Config
from secpmsim.controller import Controller
from secpmsim.stats import RunStats
from secpmsim.txn import TxnDescriptor, run_transaction
from secpmsim.workloads import WorkloadSpec, generate

_DONE = object()


def run_experiment(cfg: Config, streams: list[list[TxnDescriptor]] | None = None
                   ) -> RunStats:
    if streams is None:
        streams = [
            generate(WorkloadSpec.from_config(cfg, core=core, seed=cfg.seed + core))
            for core in range(cfg.cores)
        ]
    ctrl = Controller(cfg)
    latencies: list[float] = []

    def steps(stream: list[TxnDescriptor]) -> Iterator[str | None]:
        """One core's transactions, one step per turn; finishing a
        transaction takes a turn of its own."""
        for txn in stream:
            start = ctrl.clock
            yield from run_transaction(ctrl, txn)
            latencies.append(ctrl.clock - start)
            if cfg.txn_gap_ns > 0:
                ctrl.idle_drain(cfg.txn_gap_ns)
            yield

    ready = deque(steps(stream) for stream in streams)
    while len(ready) > 1:  # round-robin; a core leaves once its stream ends
        gen = ready.popleft()
        if next(gen, _DONE) is not _DONE:
            ready.append(gen)
    for gen in ready:  # the last core runs alone to its end
        for _ in gen:
            pass

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

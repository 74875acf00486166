"""Run metrics: write counts, counter-write reduction, latency, hit rate.

The accounting identity
    nvm_writes_total = data_writes + counter_writes_appended - counter_writes_merged
holds once the queue has drained.  Reduction is merged/appended counter
writes; it is undefined (None) for runs with no counter traffic.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from typing import Iterable

from secpmsim.config import Config, Mode


@dataclass
class RunStats:
    cfg: Config

    data_writes: int = 0
    counter_writes_appended: int = 0
    counter_writes_merged: int = 0
    nvm_writes_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    reencryptions: int = 0
    otp_reuse: int = 0
    txn_count: int = 0
    sim_time_ns: float = 0.0
    txn_latencies: list[float] = field(default_factory=list)

    @property
    def mean_txn_latency_ns(self) -> float:
        if not self.txn_latencies:
            return 0.0
        return sum(self.txn_latencies) / len(self.txn_latencies)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def throughput_txn_per_s(self) -> float:
        if self.sim_time_ns <= 0:
            return 0.0
        return self.txn_count / (self.sim_time_ns * 1e-9)

    def check_accounting(self) -> None:
        expected = (
            self.data_writes
            + self.counter_writes_appended
            - self.counter_writes_merged
        )
        if self.nvm_writes_total != expected:
            raise AssertionError(
                f"write accounting broken: total={self.nvm_writes_total} "
                f"expected={expected}"
            )


def reduction_percentage(stats: RunStats) -> float | None:
    """Fraction of counter writes removed by merging; None when no
    counter writes exist (unencrypted runs)."""
    if stats.counter_writes_appended == 0:
        return None
    return stats.counter_writes_merged / stats.counter_writes_appended


# The configuration fields that name a run, in report column order.
KEY_COLUMNS = ("workload", "mode", "txn_size", "queue_len", "cache_size",
               "cores", "seed")
REPORT_COLUMNS = [*KEY_COLUMNS, "metric", "value"]

_METRICS = [
    ("data_writes", lambda s: s.data_writes),
    ("counter_writes_appended", lambda s: s.counter_writes_appended),
    ("counter_writes_merged", lambda s: s.counter_writes_merged),
    ("nvm_writes_total", lambda s: s.nvm_writes_total),
    ("reduction_pct", lambda s: _fmt_opt(reduction_percentage(s))),
    ("mean_txn_latency_ns", lambda s: f"{s.mean_txn_latency_ns:.3f}"),
    ("throughput_txn_per_s", lambda s: f"{s.throughput_txn_per_s:.3f}"),
    ("cache_hit_rate", lambda s: f"{s.cache_hit_rate:.6f}"),
    ("reencryptions", lambda s: s.reencryptions),
    ("sim_time_ns", lambda s: f"{s.sim_time_ns:.1f}"),
]


def _fmt_opt(value: float | None) -> str:
    return "N/A" if value is None else f"{value:.6f}"


def _run_key(cfg: Config) -> tuple:
    return tuple(getattr(cfg, name) for name in KEY_COLUMNS)


def csv_text(header: list[str], rows: Iterable[Iterable]) -> str:
    """A CSV document with Unix line ends, the format of every report."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def emit_report(stats_list: list[RunStats]) -> str:
    """CSV with one row per (run, metric); byte-stable for a fixed input."""
    rows = []
    for s in stats_list:
        prefix = _run_key(s.cfg)
        rows += [(*prefix, name, get(s)) for name, get in _METRICS]
    return csv_text(REPORT_COLUMNS, rows)


def emit_normalized_report(stats_list: list[RunStats]) -> str:
    """Writes and latency normalized to the unencrypted baseline with the
    same run key in every other column."""
    baseline_mode = Mode.UNSEC_PM.value
    baselines = {_run_key(s.cfg): s
                 for s in stats_list if s.cfg.mode == baseline_mode}
    rows = []
    for s in stats_list:
        base = baselines.get(_run_key(replace(s.cfg, mode=baseline_mode)))
        if base is None or base.nvm_writes_total == 0:
            continue
        prefix = _run_key(s.cfg)
        rows.append((*prefix, "normalized_nvm_writes",
                     f"{s.nvm_writes_total / base.nvm_writes_total:.6f}"))
        if base.mean_txn_latency_ns > 0:
            rows.append((*prefix, "normalized_txn_latency",
                         f"{s.mean_txn_latency_ns / base.mean_txn_latency_ns:.6f}"))
    return csv_text(REPORT_COLUMNS, rows)

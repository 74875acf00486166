import pytest

from secpmsim.config import Config
from secpmsim.stats import (
    RunStats,
    emit_normalized_report,
    emit_report,
    reduction_percentage,
)


def stats_for(mode="secpm", **kw):
    base = dict(
        data_writes=100, counter_writes_appended=100,
        counter_writes_merged=80, nvm_writes_total=120,
        cache_hits=90, cache_misses=10, txn_count=25,
        sim_time_ns=1e6, txn_latencies=[100.0, 300.0],
    )
    base.update(kw)
    cfg = Config(mode=mode, workload="array", txn_size=256, queue_len=32,
                 cache_size=1 << 20, cores=1, seed=0)
    return RunStats(cfg, **base)


def test_accounting_identity_holds():
    stats_for().check_accounting()


def test_accounting_mismatch_raises():
    with pytest.raises(AssertionError):
        stats_for(nvm_writes_total=121).check_accounting()


def test_reduction_percentage():
    assert reduction_percentage(stats_for()) == 0.8
    unenc = stats_for(counter_writes_appended=0, counter_writes_merged=0,
                      nvm_writes_total=100)
    assert reduction_percentage(unenc) is None


def test_derived_metrics():
    s = stats_for()
    assert s.mean_txn_latency_ns == 200.0
    assert s.cache_hit_rate == 0.9
    assert s.throughput_txn_per_s == pytest.approx(25 / 1e-3)
    assert RunStats(Config()).mean_txn_latency_ns == 0.0
    assert RunStats(Config()).throughput_txn_per_s == 0.0


def test_report_is_byte_stable_and_parseable():
    runs = [stats_for(), stats_for(mode="unsec-pm",
                                   counter_writes_appended=0,
                                   counter_writes_merged=0,
                                   nvm_writes_total=100)]
    a = emit_report(runs)
    b = emit_report(runs)
    assert a == b
    lines = a.splitlines()
    assert lines[0].startswith("workload,mode,txn_size")
    assert any(",reduction_pct,0.800000" in line for line in lines)
    assert any(",reduction_pct,N/A" in line for line in lines)


def test_normalized_report_against_baseline():
    baseline = stats_for(mode="unsec-pm", counter_writes_appended=0,
                         counter_writes_merged=0, nvm_writes_total=100,
                         txn_latencies=[100.0])
    doubled = stats_for(mode="secpm-no-cwr", counter_writes_merged=0,
                        counter_writes_appended=100, nvm_writes_total=200,
                        txn_latencies=[250.0])
    report = emit_normalized_report([baseline, doubled])
    assert "secpm-no-cwr" in report
    assert ",normalized_nvm_writes,2.000000" in report
    assert ",normalized_txn_latency,2.500000" in report


def test_normalized_report_skips_unmatched_runs():
    lone = stats_for(mode="secpm")
    report = emit_normalized_report([lone])
    assert report.count("\n") == 1  # header only

"""Every config field is a live knob, and boolean settings parse strictly."""

import csv
import dataclasses

import pytest

from secpmsim import runner
from secpmsim.config import (
    COUNTER_REGION_BASE,
    GIB,
    LINE,
    MAX_BANKS,
    PAGE,
    WORKLOADS,
    Config,
    parse_setting,
)
from secpmsim.stats import emit_report

# Per field: overrides for the base run and a new value that must change
# the run's reported numbers or its final NVM store.  The base run is ten
# 256-byte hashtable transactions.
LIVE_CHANGES = {
    "mode": ({}, "secpm-no-cwr"),
    "workload": ({}, "array"),
    "txn_size": ({}, 512),
    "txn_count": ({}, 11),
    "queue_len": ({}, 4),
    "cache_size": ({"cache_ways": 1}, 64),
    "cache_ways": ({"cache_size": 256, "cache_ways": 4}, 1),
    "cores": ({}, 2),
    "seed": ({}, 1),
    "cpu_ghz": ({}, 3.0),
    "cache_hit_cycles": ({}, 20),
    "flush_overhead_ns": ({}, 10.0),
    "txn_gap_ns": ({}, 0.0),
    "banks": ({}, 2),
    "footprint": ({}, 1 << 20),
    "log_slots": ({}, 2),
    "use_register": ({"queue_len": 4}, False),
    "t_rcd_ns": ({}, 100.0),
    "t_cl_ns": ({}, 30.0),
    "t_wr_ns": ({}, 500.0),
    "aes_ns": ({}, 80.0),
}


def run_outputs(cfg, monkeypatch):
    """The (metric, value) rows of a run's report and its final NVM store.

    The config columns are left out: a field the report only echoes is not
    live."""
    made = []

    class Recorded(runner.Controller):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(runner, "Controller", Recorded)
    report = emit_report([runner.run_experiment(cfg)])
    metrics = [(r["metric"], r["value"])
               for r in csv.DictReader(report.splitlines())]
    return metrics, made[0].nvm.store


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Config)])
def test_every_field_is_live(name, monkeypatch):
    assert name in LIVE_CHANGES, f"no liveness case for config field {name!r}"
    overrides, value = LIVE_CHANGES[name]
    base = Config(workload="hashtable", txn_size=256, txn_count=10, **overrides)
    assert getattr(base, name) != value
    changed = dataclasses.replace(base, **{name: value})
    assert run_outputs(changed, monkeypatch) != run_outputs(base, monkeypatch)


@pytest.mark.parametrize("text, expected", [
    ("1", True), ("0", False), ("true", True), ("False", False),
    ("YES", True), ("no", False), ("On", True), ("off", False),
])
def test_boolean_setting_spellings(text, expected):
    assert parse_setting("use_register", text) is expected


@pytest.mark.parametrize("text", ["maybe", "", "2", "tru", "enabled"])
def test_boolean_setting_rejects_other_values(text):
    with pytest.raises(ValueError, match="use_register"):
        parse_setting("use_register", text)


def test_log_reaching_the_counter_region_is_rejected():
    # 4 cores * 2**26 slots of 66 lines need 1.03 TiB on their own.
    with pytest.raises(ValueError, match="log_slots .* counter region"):
        Config(cores=4, log_slots=1 << 26, txn_size=4096)


def test_layout_may_end_where_the_counter_region_starts():
    log_bytes = 64 * (1024 // 64 + 2) * 64  # 64 slots of 18 lines: 18 pages
    cfg = Config(txn_size=1024, footprint=COUNTER_REGION_BASE - log_bytes)
    assert cfg.mapped_pages * 4096 == COUNTER_REGION_BASE
    with pytest.raises(ValueError, match="counter region"):
        dataclasses.replace(cfg, footprint=cfg.footprint + 4096)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_footprint_holds_four_transactions(workload):
    """footprint = 0 obeys the 4 * txn_size rule of an explicit footprint:
    a larger transaction would log onto, or draw addresses past, the
    workload's default range."""
    default = Config(workload=workload).data_bytes
    Config(workload=workload, txn_size=default // 4)
    for txn_size in (default // 4 + LINE, 2 * default):
        with pytest.raises(ValueError, match=r"footprint = 0 .* 4 \* txn_size"):
            Config(workload=workload, txn_size=txn_size)
        Config(workload=workload, txn_size=txn_size,
               footprint=-(-4 * txn_size // PAGE) * PAGE)


def test_bank_count_is_capped():
    Config(banks=MAX_BANKS)
    with pytest.raises(ValueError, match="banks must be at most 65536"):
        Config(banks=MAX_BANKS + 1)
    with pytest.raises(ValueError, match="banks must be at most"):
        Config(banks=1 << 40)


def test_a_built_config_cannot_change():
    cfg = Config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.queue_len = 1
    assert cfg == Config()


def _layout_from_scratch(cfg):
    data = cfg.footprint or (GIB if cfg.workload in ("array", "queue")
                             else 2 * GIB)
    slot_lines = cfg.txn_size // LINE + 2
    stride = slot_lines * LINE
    headers = range(data, data + cfg.cores * cfg.log_slots * stride, stride)
    return data, slot_lines, headers, -(-headers.stop // PAGE)


def test_cached_layout_matches_a_fresh_computation():
    """Each config computes its layout once; a config made from another by
    ``dataclasses.replace`` computes its own, from its own fields."""
    configs = [Config(workload="array", txn_size=256)]
    for change in ({"workload": "btree"}, {"txn_size": 4096}, {"cores": 3},
                   {"log_slots": 5}, {"footprint": 1 << 20},
                   {"workload": "queue", "footprint": 0}):
        configs.append(dataclasses.replace(configs[-1], **change))
    for cfg in configs:
        layout = (cfg.data_bytes, cfg.slot_lines, cfg.log_headers,
                  cfg.mapped_pages)
        assert layout == _layout_from_scratch(cfg), cfg
        # the cache is no field: equality and hashing ignore it
        fresh = Config(**{f.name: getattr(cfg, f.name)
                          for f in dataclasses.fields(cfg)})
        assert fresh == cfg and hash(fresh) == hash(cfg)

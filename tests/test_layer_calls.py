"""How often one flush and one read call each layer function.

The benchmark in ``bench/`` wraps these functions and derives rows from
their call counts: ``counters.cache_hit_rate`` from ``lookup``,
``write_queue.merge_ratio`` from ``append`` and ``cwr_merge``, and
``write_queue.depth_mean`` from ``append``.  A fold that skipped one of
these calls would leave those rows wrong without any error, so the counts
are pinned here."""

from collections import Counter

import pytest

from secpmsim import controller as controller_module
from secpmsim.config import Config
from secpmsim.controller import Controller
from secpmsim.counters import CounterAddressMap, CounterCache, CounterLine
from secpmsim.crypto import OtpEngine
from secpmsim.nvm import NvmDevice
from secpmsim.write_queue import DATA, WriteQueue

# (owner, attribute, name) of every counted function.  ``increment_minor``
# is counted where the controller looks it up, as the benchmark does.
TARGETS = [
    (CounterAddressMap, "locate", "locate"),
    (CounterCache, "lookup", "lookup"),
    (controller_module, "increment_minor", "increment_minor"),
    (CounterLine, "serialize", "serialize"),
    (WriteQueue, "atomic_append_pair", "atomic_append_pair"),
    (WriteQueue, "append", "append"),
    (WriteQueue, "cwr_merge", "cwr_merge"),
    (NvmDevice, "nvm_read", "nvm_read"),
    (OtpEngine, "generate", "generate"),
]


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, name in TARGETS:
        monkeypatch.setattr(owner, attr, counted(name, vars(owner)[attr]))
    return counts


def make():
    cfg = Config(mode="secpm", workload="array", txn_size=256, txn_count=10)
    assert cfg.use_register
    return Controller(cfg)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_one_flush_calls_each_layer_once(calls, warm):
    ctrl = make()
    if warm:  # the counter line is cached and its entry is still queued
        ctrl.handle_flush(0, bytes(64))
    calls.clear()
    ctrl.handle_flush(64, bytes(range(64)))
    once = ("locate", "lookup", "increment_minor", "serialize",
            "atomic_append_pair", "cwr_merge")
    assert {name: calls[name] for name in once} == dict.fromkeys(once, 1)
    assert calls["append"] == 2


@pytest.mark.parametrize("queued", [False, True], ids=["nvm", "queued"])
def test_one_read_calls_each_layer_once(calls, queued):
    ctrl = make()
    ctrl.handle_flush(64, bytes(range(64)))
    if not queued:
        ctrl.drain_all()
    calls.clear()
    assert ctrl.handle_read(64) == bytes(range(64))
    assert calls["locate"] == 1 and calls["lookup"] == 1
    assert calls["nvm_read"] == (0 if queued else 1)
    assert sum(calls.values()) == 2 + calls["nvm_read"]


@pytest.mark.parametrize("full", [False, True], ids=["room", "full"])
def test_one_unencrypted_flush_appends_once(calls, monkeypatch, full):
    """An unencrypted flush queues its line with one ``append`` and calls
    no counter, merge or pad function.  A full queue first drains to half
    its capacity, announcing each drain, and then announces the append."""
    cfg = Config(mode="unsec-pm", workload="array", txn_size=256,
                 txn_count=10, queue_len=2)
    ctrl = Controller(cfg)
    ctrl.handle_flush(0, bytes(64))
    if full:
        ctrl.handle_flush(4096, bytes(64))
    assert len(ctrl.queue) == (2 if full else 1)
    depths, labels = [], []
    append = WriteQueue.append

    def depth_at_append(queue, entry):
        depths.append(len(queue.entries))
        return append(queue, entry)

    monkeypatch.setattr(WriteQueue, "append", depth_at_append)
    ctrl.boundary_hook = labels.append
    calls.clear()
    ctrl.handle_flush(64, bytes(range(64)))
    assert calls["append"] == 1 and depths == [1]
    bypassed = ("locate", "lookup", "increment_minor", "serialize",
                "atomic_append_pair", "cwr_merge", "generate")
    assert {name: calls[name] for name in bypassed} == dict.fromkeys(bypassed, 0)
    assert labels == ["drain"] * full + ["append"]
    entry = ctrl.queue.entries[-1]
    assert (entry.address, entry.payload, entry.origin) == (
        64, bytes(range(64)), DATA)


def test_a_page_reencryption_installs_its_half_moved_line_once(monkeypatch):
    """A page re-encryption puts the half-moved counter line into the cache
    once, at its first moved line, and then moves it in place; so does one
    resumed from a crash after its tenth line, after loading the durable
    counter line.  No other line is inserted on the way."""
    ctrl = make()
    for value in range(127):  # line 0's minor counter reaches its limit
        ctrl.handle_flush(0, bytes([value]) * 64)
    cline = ctrl.map.counter_line_address(0)
    inserted, moved = [], []
    insert = CounterCache.insert

    def counted_insert(cache, address, line):
        inserted.append((address, line))
        return insert(cache, address, line)

    def hook(label):
        if label == "reencrypt_line":
            moved.append(ctrl.snapshot())

    monkeypatch.setattr(CounterCache, "insert", counted_insert)
    ctrl.boundary_hook = hook
    ctrl.handle_flush(0, bytes([127]) * 64)  # overflows: moves the page
    assert len(moved) == 64 and ctrl.reencryptions == 1
    assert [address for address, _ in inserted] == [cline]
    assert ctrl.cache.lookup(cline) is inserted[0][1]

    inserted.clear()
    resumed = Controller.from_snapshot(ctrl.cfg, moved[9])
    assert resumed.reencryptions == 1 and resumed.rsr is None
    assert [address for address, _ in inserted] == [cline, cline]
    durable, half_moved = (line for _, line in inserted)
    assert durable is not half_moved
    assert resumed.cache.lookup(cline) is half_moved

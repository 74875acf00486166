import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secpmsim.config import Config
from secpmsim.nvm import NvmDevice, take_crash_snapshot
from secpmsim.write_queue import Origin, WriteQueue, WriteQueueEntry


BASE = 1 << 40


def entry(addr, origin=Origin.DATA, payload=None):
    return WriteQueueEntry(addr, payload or bytes(64), origin)


def device():
    cfg = Config()
    return NvmDevice(cfg.banks, cfg.t_wr_ns, cfg.read_ns)


def test_append_counts_by_origin():
    q = WriteQueue(capacity=8)
    q.append(entry(0))
    q.append(entry(64, Origin.COUNTER))
    assert (q.appended_data, q.appended_counter) == (1, 1)
    assert len(q) == 2


def test_append_full_queue_raises():
    q = WriteQueue(capacity=1)
    q.append(entry(0))
    with pytest.raises(RuntimeError):
        q.append(entry(64))


def test_merge_removes_coresident_counter():
    q = WriteQueue(capacity=8, cwr_enabled=True)
    q.append(entry(1 << 40, Origin.COUNTER, b"\1" * 64))
    q.append(entry(0))
    q.append(entry(1 << 40, Origin.COUNTER, b"\2" * 64))
    assert q.merged == 1
    counters = [e for e in q.entries if e.origin is Origin.COUNTER]
    assert len(counters) == 1
    assert counters[0].payload == b"\2" * 64  # later value survives
    assert list(q.entries)[-1] is counters[0]  # merged entry sits at tail


def test_merge_disabled_keeps_both():
    q = WriteQueue(capacity=8, cwr_enabled=False)
    q.append(entry(1 << 40, Origin.COUNTER))
    q.append(entry(1 << 40, Origin.COUNTER))
    assert q.merged == 0 and len(q) == 2


def test_data_entries_never_merge():
    q = WriteQueue(capacity=8, cwr_enabled=True)
    q.append(entry(0))
    q.append(entry(0))
    assert q.merged == 0 and len(q) == 2
    with pytest.raises(ValueError):
        q.cwr_merge(entry(0))  # merging is a counter-only operation


def test_merge_only_same_address():
    q = WriteQueue(capacity=8, cwr_enabled=True)
    q.append(entry(1 << 40, Origin.COUNTER))
    q.append(entry((1 << 40) + 64, Origin.COUNTER))
    assert q.merged == 0 and len(q) == 2


def test_atomic_pair_requires_two_slots():
    q = WriteQueue(capacity=2)
    q.append(entry(0))
    with pytest.raises(RuntimeError):
        q.atomic_append_pair(1 << 40, bytes(64), 64, bytes(64))
    assert len(q) == 1  # neither line went in


def test_atomic_pair_appends_counter_then_data():
    q = WriteQueue(capacity=4)
    q.atomic_append_pair(1 << 40, b"\1" * 64, 64, b"\2" * 64)
    assert [(e.address, e.payload, e.origin) for e in q.entries] == [
        (1 << 40, b"\1" * 64, Origin.COUNTER), (64, b"\2" * 64, Origin.DATA)]


def test_drain_is_fifo():
    q = WriteQueue(capacity=8)
    nvm = device()
    q.append(entry(0))
    q.append(entry(16 * 64))  # distinct banks, no blocking
    first = q.drain_one(nvm, 0.0)
    second = q.drain_one(nvm, 400.0)
    assert (first.address, second.address) == (0, 16 * 64)
    assert nvm.writes == 2


def test_drain_blocks_on_busy_bank():
    q = WriteQueue(capacity=8)
    nvm = device()
    q.append(entry(0))
    q.append(entry(16 * 64))  # same bank as address 0
    q.drain_one(nvm, 0.0)
    # Head bank busy until tWR: issuing the head earlier is a caller bug,
    # and the write refuses it without touching the queue.
    assert nvm.busy_until[nvm.bank(q.entries[0].address)] == Config().t_wr_ns
    with pytest.raises(RuntimeError, match="busy bank"):
        q.drain_one(nvm, 100.0)
    assert [e.address for e in q.entries] == [16 * 64] and nvm.writes == 1
    assert q.drain_one(nvm, Config().t_wr_ns).address == 16 * 64


def test_conservation_identity():
    q = WriteQueue(capacity=64, cwr_enabled=True)
    nvm = device()
    t = 0.0
    for i in range(30):
        q.append(entry((1 << 40) + (i % 3) * 64, Origin.COUNTER))
        if i % 4 == 0:
            t = max(t, nvm.busy_until[nvm.bank(q.entries[0].address)])
            q.drain_one(nvm, t)
        appended = q.appended_data + q.appended_counter
        assert appended - q.merged == nvm.writes + len(q)


class ScanQueue:
    """Linear-scan oracle: merging finds the resident counter entry by
    walking the queue, as the unindexed design did."""

    def __init__(self, capacity, cwr_enabled):
        self.capacity = capacity
        self.cwr_enabled = cwr_enabled
        self.entries = []
        self.merged = 0
        self.nvm = device()

    def cwr_merge(self, incoming):
        for resident in self.entries:
            if (resident.origin is Origin.COUNTER
                    and resident.address == incoming.address):
                self.entries.remove(resident)
                self.merged += 1
                return 1
        return 0

    def append(self, e):
        if e.origin is Origin.COUNTER and self.cwr_enabled:
            self.cwr_merge(e)
        self.entries.append(e)

    def drain_one(self, now):
        head = self.entries.pop(0)
        self.nvm.nvm_write(head.address, head.payload, now)

    def snapshot_store(self):
        store = dict(self.nvm.store)
        store.update((e.address, e.payload) for e in self.entries)
        return store


def head_ready(q, nvm, now):
    """Drain only a head whose bank is free, as the controller does."""
    return bool(q.entries) and nvm.busy_until[nvm.bank(q.entries[0].address)] <= now


queue_ops = st.lists(
    st.tuples(st.sampled_from(["data", "counter", "merge", "drain"]),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=400)),
    max_size=120)


@given(ops=queue_ops, cwr_enabled=st.booleans())
@settings(max_examples=150, deadline=None)
def test_indexed_queue_matches_scan_oracle(ops, cwr_enabled):
    q = WriteQueue(capacity=8, cwr_enabled=cwr_enabled)
    nvm = device()
    oracle = ScanQueue(8, cwr_enabled)
    now = 0.0
    for n, (op, k, arg) in enumerate(ops):
        # Data lines 0..5 and counter lines 0..5 share banks pairwise.
        if op == "drain":
            now += arg
            if head_ready(q, nvm, now):
                q.drain_one(nvm, now)
                oracle.drain_one(now)
        elif op == "merge":
            if not cwr_enabled:
                continue
            e = entry(BASE + k * 64, Origin.COUNTER, bytes([n % 256]) * 64)
            assert q.cwr_merge(e) == oracle.cwr_merge(e)
        else:
            origin = Origin.COUNTER if op == "counter" else Origin.DATA
            e = entry((BASE if op == "counter" else 0) + k * 64, origin,
                      bytes([n % 256]) * 64)
            if len(q) >= q.capacity:
                with pytest.raises(RuntimeError):
                    q.append(e)
                continue
            q.append(e)
            oracle.append(e)
        assert list(q.entries) == oracle.entries  # same objects, same order
        assert q.merged == oracle.merged
        assert nvm.store == oracle.nvm.store
        assert take_crash_snapshot(nvm, q).store == oracle.snapshot_store()
    # Draining everything leaves no stale index entry behind.
    while q.entries:
        now += 1000.0
        q.drain_one(nvm, now)
    if cwr_enabled:
        for k in range(6):
            assert q.cwr_merge(entry(BASE + k * 64, Origin.COUNTER)) == 0


@given(ops=queue_ops, cwr_enabled=st.booleans())
@settings(max_examples=150, deadline=None)
def test_latest_matches_reverse_scan(ops, cwr_enabled):
    """The per-address index names the newest queued entry, the one a
    read must be forwarded, after every append, merge and drain."""
    q = WriteQueue(capacity=8, cwr_enabled=cwr_enabled)
    nvm = device()
    addresses = [base + k * 64 for base in (0, BASE) for k in range(6)]
    now = 0.0
    for n, (op, k, arg) in enumerate(ops):
        if op == "drain":
            now += arg
            if head_ready(q, nvm, now):
                q.drain_one(nvm, now)
        elif op == "merge":
            if not cwr_enabled:
                continue
            q.cwr_merge(entry(BASE + k * 64, Origin.COUNTER))
        elif len(q) < q.capacity:
            origin = Origin.COUNTER if op == "counter" else Origin.DATA
            q.append(entry((BASE if op == "counter" else 0) + k * 64, origin,
                           bytes([n % 256]) * 64))
        for address in addresses:
            newest = next((e for e in reversed(q.entries)
                           if e.address == address), None)
            assert q.latest.get(address) is newest
        assert len(q.latest) == len({e.address for e in q.entries})
    while q.entries:
        now += 1000.0
        q.drain_one(nvm, now)
    assert q.latest == {}


def test_merge_on_non_merging_queue_is_rejected():
    q = WriteQueue(capacity=8, cwr_enabled=False)
    q.append(entry(BASE, Origin.COUNTER))
    with pytest.raises(ValueError):
        q.cwr_merge(entry(BASE, Origin.COUNTER))

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


def test_data_entries_never_merge():
    q = WriteQueue(capacity=8, cwr_enabled=True)
    q.append(entry(0))
    q.append(entry(0))
    assert q.merged == 0 and len(q) == 2
    with pytest.raises(ValueError):
        q.cwr_merge(entry(0))  # merging is a counter-only operation


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


class ScanQueue:
    """Linear-scan reference: merging finds the resident counter entry, and
    a read the newest entry for an address, by walking the queue."""

    def __init__(self, capacity, cwr_enabled):
        self.capacity = capacity
        self.cwr_enabled = cwr_enabled
        self.entries = []
        self.appended = {Origin.DATA: 0, Origin.COUNTER: 0}
        self.merged = 0
        self.nvm = device()

    def cwr_merge(self, incoming):
        if not self.cwr_enabled:
            raise ValueError("merging is disabled")
        for resident in self.entries:
            if (resident.origin is Origin.COUNTER
                    and resident.address == incoming.address):
                self.entries.remove(resident)
                self.merged += 1
                return 1
        return 0

    def append(self, e):
        if len(self.entries) >= self.capacity:
            raise RuntimeError("full")
        self.appended[e.origin] += 1
        if e.origin is Origin.COUNTER and self.cwr_enabled:
            self.cwr_merge(e)
        self.entries.append(e)

    def latest(self, address):
        return next((e for e in reversed(self.entries)
                     if e.address == address), None)

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


def outcome(call, e):
    """What a call returns, or the type of the error it raises."""
    try:
        return call(e)
    except (RuntimeError, ValueError) as exc:
        return type(exc)


queue_ops = st.lists(
    st.tuples(st.sampled_from(["data", "counter", "merge", "drain"]),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=400)),
    max_size=120)
# Data lines 0..5 and counter lines 0..5 share banks pairwise.
ADDRESSES = [base + k * 64 for base in (0, BASE) for k in range(6)]


@given(ops=queue_ops, cwr_enabled=st.booleans())
@settings(max_examples=150, deadline=None)
def test_indexed_queue_matches_scan_oracle(ops, cwr_enabled):
    q = WriteQueue(capacity=8, cwr_enabled=cwr_enabled)
    nvm = device()
    oracle = ScanQueue(8, cwr_enabled)
    now = 0.0
    for n, (op, k, arg) in enumerate(ops):
        if op == "drain":
            now += arg
            if head_ready(q, nvm, now):
                q.drain_one(nvm, now)
                oracle.drain_one(now)
        else:
            origin = Origin.DATA if op == "data" else Origin.COUNTER
            e = entry((0 if op == "data" else BASE) + k * 64, origin,
                      bytes([n % 256]) * 64)
            call = "cwr_merge" if op == "merge" else "append"
            assert (outcome(getattr(q, call), e)
                    == outcome(getattr(oracle, call), e))
        assert list(q.entries) == oracle.entries  # same objects, same order
        assert ((q.appended_data, q.appended_counter, q.merged)
                == (oracle.appended[Origin.DATA],
                    oracle.appended[Origin.COUNTER], oracle.merged))
        assert (q.appended_data + q.appended_counter - q.merged
                == nvm.writes + len(q))
        assert q.latest == {a: oracle.latest(a) for a in ADDRESSES
                            if oracle.latest(a) is not None}
        assert nvm.store == oracle.nvm.store
        assert take_crash_snapshot(nvm, q).store == oracle.snapshot_store()
    # Draining everything leaves no stale index entry behind.
    while q.entries:
        now += 1000.0
        q.drain_one(nvm, now)
    assert q.latest == {}

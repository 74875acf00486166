import random
from collections import Counter

import pytest

from _bit_loop import line_from
from secpmsim.config import PAGE, Config
from secpmsim.controller import Controller, Mode, Rsr, derive_key
from secpmsim.counters import CounterLine
from secpmsim.crypto import decrypt_line
from secpmsim.nvm import ZERO_LINE, CrashSnapshot
from secpmsim.txn import TxnDescriptor, execute
from secpmsim.write_queue import Origin


def make(mode="secpm", **kw):
    cfg = Config(mode=mode, workload="array", txn_size=256, txn_count=10, **kw)
    return Controller(cfg)


def counter_is_durable(ctrl, address):
    cline, _ = ctrl.map.locate(address)
    in_queue = any(e.address == cline for e in ctrl.queue.entries)
    return in_queue or cline in ctrl.nvm.store


def test_mode_flags():
    assert not Mode.UNSEC_PM.encrypted
    assert Mode.SECPM_NO_CWT.encrypted and not Mode.SECPM_NO_CWT.write_through
    assert Mode.SECPM_NO_CWR.write_through and not Mode.SECPM_NO_CWR.cwr
    assert Mode.SECPM.write_through and Mode.SECPM.cwr


def test_crash_consistent_modes():
    # An encrypted mode keeps its promise only by writing counters through
    # and staging counter and data in the register.
    assert {(m.value, r) for m in Mode for r in (True, False)
            if Config(mode=m.value, use_register=r).crash_consistent} == {
        ("unsec-pm", True), ("unsec-pm", False), ("secpm-no-cwr", True),
        ("secpm", True)}


@pytest.mark.parametrize("use_register", [True, False])
@pytest.mark.parametrize("mode", [m.value for m in Mode])
def test_every_queued_line_is_announced(mode, use_register):
    """Every line that enters the queue and every drain is announced as a
    crash boundary, write-back evictions and the final counter flush too."""
    ctrl = make(mode, cache_size=512, cache_ways=1, queue_len=4,
                use_register=use_register)
    events = Counter()
    ctrl.boundary_hook = lambda label: events.update((label,))
    for k in range(40):
        base = 3 * k * PAGE  # three pages, so the 8-set cache evicts
        lines = [base, base + 64, base + PAGE, base + 2 * PAGE]
        execute(ctrl, TxnDescriptor(k, [(a, bytes([k]) * 64) for a in lines],
                                    seq=k))
    for i in range(130):  # line 0 overflows its minor once
        ctrl.handle_flush(0, bytes([i]) * 64)
    ctrl.flush_counter_cache()
    queue = ctrl.queue
    assert queue.appended_data + queue.appended_counter == (
        events["append"] + 2 * events["append_pair"]
        + 2 * events["reencrypt_line"])
    assert events["drain"] == ctrl.nvm.writes
    assert ctrl.reencryptions == (mode != "unsec-pm")
    if mode == "secpm-no-cwt":  # evictions and the final flush queue lines
        assert queue.appended_counter > events["reencrypt_line"]


@pytest.mark.parametrize("mode", ["secpm", "secpm-no-cwr", "secpm-no-cwt"])
def test_a_never_written_line_reads_as_zeros_decrypted(mode):
    """A line the NVM never held reads as the zero line decrypted under the
    counter its page holds, also under a durable non-zero counter and next
    to a line written since."""
    cfg = Config(mode=mode, workload="array", txn_size=256, txn_count=10)
    durable = CounterLine(5)
    durable.set_minor(3, 9)
    cline = Controller(cfg).map.counter_line_address(0)
    ctrl = Controller.from_snapshot(
        cfg, CrashSnapshot({cline: durable.serialize()}))
    ctrl.handle_flush(64, bytes(range(64)))
    for address, counter in ((3 * 64, durable.counter_value(3)),
                             (7 * 64, durable.counter_value(7)),
                             (PAGE + 64, 0)):
        assert ctrl.handle_read(address) == decrypt_line(
            ZERO_LINE, ctrl.otp.generate(address, counter)), address
    assert ctrl.handle_read(64) == bytes(range(64))


def test_derive_key_is_stable_and_seed_dependent():
    assert derive_key(0) == derive_key(0)
    assert derive_key(0) != derive_key(1)
    assert len(derive_key(3)) == 16


def test_unencrypted_flush_appends_plaintext_only():
    ctrl = make("unsec-pm")
    ctrl.handle_flush(0, b"\5" * 64)
    assert [e.origin for e in ctrl.queue.entries] == [Origin.DATA]
    assert ctrl.queue.entries[0].payload == b"\5" * 64


def test_flush_rejects_short_payload():
    ctrl = make()
    with pytest.raises(ValueError):
        ctrl.handle_flush(0, b"short")


def test_counter_durable_at_every_ack():
    """Write-through ordering: when a flush is acknowledged, its counter
    is already in the write queue or in durable storage."""
    ctrl = make("secpm", queue_len=8)
    rng = random.Random(0)
    for _ in range(200):
        addr = rng.randrange(4096) * 64
        ctrl.handle_flush(addr, rng.randbytes(64))
        assert counter_is_durable(ctrl, addr)


def test_counter_not_durable_without_write_through():
    ctrl = make("secpm-no-cwt", queue_len=8)
    ctrl.handle_flush(0, bytes(64))
    assert not counter_is_durable(ctrl, 0)
    assert len(ctrl.cache.dirty_entries()) == 1


def test_flush_counter_cache_pushes_dirty_lines():
    ctrl = make("secpm-no-cwt", queue_len=8)
    ctrl.handle_flush(0, bytes(64))
    ctrl.flush_counter_cache()
    ctrl.drain_all()
    assert counter_is_durable(ctrl, 0)
    assert ctrl.cache.dirty_entries() == []


def test_read_returns_last_write():
    for mode in ("unsec-pm", "secpm-no-cwt", "secpm-no-cwr", "secpm"):
        ctrl = make(mode)
        rng = random.Random(1)
        values = {a * 64: rng.randbytes(64) for a in range(20)}
        for addr, value in values.items():
            ctrl.handle_flush(addr, value)
        for addr, value in values.items():
            assert ctrl.handle_read(addr) == value, mode
        ctrl.drain_all()
        for addr, value in values.items():
            assert ctrl.handle_read(addr) == value, mode


def test_ciphertext_differs_from_plaintext():
    ctrl = make("secpm")
    ctrl.handle_flush(0, b"\0" * 64)
    ctrl.drain_all()
    assert ctrl.nvm.store.get(0, ZERO_LINE) != b"\0" * 64
    assert ctrl.handle_read(0) == b"\0" * 64


def test_read_back_catches_a_line_sealed_under_a_stale_counter(monkeypatch):
    """A counter-tracking bug that seals one line under ctr - 1 garbles
    that line on read, from the queue and from NVM; the other lines read
    back intact.  Sealing keeps the read-back check's power."""
    target = 3 * 64
    seal = Controller._seal

    def stale(self, address, ctr, plaintext):
        return seal(self, address, ctr - (address == target), plaintext)

    monkeypatch.setattr(Controller, "_seal", stale)
    ctrl = make("secpm")
    rng = random.Random(3)
    values = {a * 64: rng.randbytes(64) for a in range(8)}
    for addr, value in values.items():
        ctrl.handle_flush(addr, value)
    for drained in (False, True):
        if drained:
            ctrl.drain_all()
        for addr, value in values.items():
            assert (ctrl.handle_read(addr) == value) == (addr != target)


def test_counter_values_strictly_increase():
    ctrl = make("secpm")
    cline, idx = ctrl.map.locate(0)
    seen = []
    for _ in range(5):
        ctrl.handle_flush(0, bytes(64))
        seen.append(ctrl.cache.lookup(cline).counter_value(idx))
    assert seen == sorted(set(seen))


def test_no_cwr_mode_writes_exactly_double():
    values = [(a * 64, random.Random(a).randbytes(64)) for a in range(50)]
    counts = {}
    for mode in ("unsec-pm", "secpm-no-cwr"):
        ctrl = make(mode, queue_len=8)
        for addr, value in values:
            ctrl.handle_flush(addr, value)
        ctrl.drain_all()
        counts[mode] = ctrl.nvm.writes
    assert counts["secpm-no-cwr"] == 2 * counts["unsec-pm"]


def test_queue_backpressure_drains_to_watermark():
    ctrl = make("secpm-no-cwr", queue_len=8)
    for a in range(10):
        ctrl.handle_flush(a * 64, bytes(64))
        assert len(ctrl.queue) <= 8
    assert ctrl.nvm.writes > 0


def test_clock_advances_monotonically():
    ctrl = make("secpm")
    stamps = []
    for a in range(30):
        ctrl.handle_flush(a * 64, bytes(64))
        stamps.append(ctrl.clock)
    assert stamps == sorted(stamps)
    assert stamps[0] > 0


def read_cost(ctrl, address):
    start = ctrl.clock
    ctrl.handle_read(address)
    return ctrl.clock - start


def test_read_overlaps_counter_fetch_and_data_fetch():
    """At default timing (read 63 ns, AES 40 ns, cache hit 6 ns) a read ends
    at max(data arrived, counter ready + AES), both fetches starting at the
    read's start."""
    # Page 0's counter line and line 0 share bank 0: the data fetch waits
    # for the counter fetch, 63 + 63.
    ctrl = make("secpm")
    assert ctrl.nvm.bank(ctrl.map.counter_line_address(0)) == ctrl.nvm.bank(0)
    assert read_cost(ctrl, 0) == 126.0
    ctrl = make("secpm")
    assert read_cost(ctrl, 64) == 103.0  # counter miss: 63 + 40
    assert read_cost(ctrl, 128) == 63.0  # counter hit: max(63, 6 + 40)


def test_a_queued_data_line_reads_in_read_ns_and_waits_for_no_bank():
    ctrl = make("secpm")
    ctrl.handle_flush(64, bytes(range(64)))
    assert 64 in ctrl.queue.latest
    ctrl.nvm.busy_until[ctrl.nvm.bank(64)] = ctrl.clock + 10_000.0
    # Counter hit: max(63, 6 + 40).
    assert read_cost(ctrl, 64) == ctrl.cfg.read_ns == 63.0


def test_a_counter_hit_read_waits_for_the_pad_when_aes_is_slow():
    ctrl = make("secpm", aes_ns=100.0)
    read_cost(ctrl, 64)  # caches page 0's counter line
    # Bank 2 is free: data 63 ns, pad 6 + 100 ns.
    assert read_cost(ctrl, 128) == ctrl.cfg.cache_hit_ns + 100.0 == 106.0


def test_a_counter_miss_on_a_queued_counter_line_is_served_from_the_queue():
    # One one-way set: page 1's counter line evicts page 0's from the cache
    # while page 0's counter entry is still queued.
    ctrl = make("secpm", cache_size=64, cache_ways=1)
    ctrl.handle_flush(0, bytes(range(64)))
    ctrl.handle_flush(PAGE, bytes(64))
    cline = ctrl.map.counter_line_address(0)
    assert ctrl.cache.lookup(cline) is None and cline in ctrl.queue.latest
    ctrl.nvm.busy_until[ctrl.nvm.bank(cline)] = ctrl.clock + 10_000.0
    # The counter comes from the queue in 63 ns, the pad 40 ns later; the
    # never-written data line 64 comes from its free bank in 63 ns.
    assert read_cost(ctrl, 64) == 103.0
    assert ctrl.handle_read(0) == bytes(range(64))


def test_idle_drain_empties_queue_without_flush_cost():
    ctrl = make("unsec-pm", queue_len=8)
    ctrl.handle_flush(0, bytes(64))
    before = ctrl.clock
    ctrl.idle_drain(10_000.0)
    assert len(ctrl.queue) == 0
    assert ctrl.clock == before + 10_000.0


def test_idle_drain_respects_window():
    ctrl = make("unsec-pm", queue_len=8)
    ctrl.handle_flush(0, bytes(64))
    ctrl.handle_flush(16 * 64, bytes(64))  # same bank: must wait tWR
    ctrl.idle_drain(1.0)  # too short for the second write to issue
    assert len(ctrl.queue) == 1


def test_overflow_triggers_page_reencryption():
    ctrl = make("secpm", queue_len=64)
    rng = random.Random(2)
    sibling = rng.randbytes(64)
    ctrl.handle_flush(64, sibling)  # another line on the page
    values = [rng.randbytes(64) for _ in range(128)]
    for value in values:
        ctrl.handle_flush(0, value)
    assert ctrl.reencryptions == 1
    assert ctrl.otp_reuse == 0
    assert ctrl.handle_read(0) == values[-1]
    assert ctrl.handle_read(64) == sibling
    cline, _ = ctrl.map.locate(0)
    assert ctrl.cache.lookup(cline).major == 1


def test_pad_reuse_counts_every_non_increasing_counter():
    """Rewinding a cached counter line makes the next flush reuse a pad:
    a repeated counter and a lower counter each count once."""
    ctrl = make("secpm")
    cline, _ = ctrl.map.locate(0)
    ctrl.handle_flush(0, b"\1" * 64)  # counter 1
    ctrl.handle_flush(0, b"\2" * 64)  # counter 2
    assert ctrl.otp_reuse == 0
    ctrl.cache.insert(cline, line_from(0, [1] + [0] * 63))
    ctrl.handle_flush(0, b"\3" * 64)  # counter 2 again
    assert ctrl.otp_reuse == 1
    ctrl.cache.insert(cline, CounterLine())
    ctrl.handle_flush(0, b"\4" * 64)  # counter 1, below the highest used
    assert ctrl.otp_reuse == 2
    ctrl.handle_flush(0, b"\5" * 64)  # counter 2: above the last, still reused
    assert ctrl.otp_reuse == 3
    ctrl.handle_flush(64, b"\6" * 64)  # another line keeps its own history
    assert ctrl.otp_reuse == 3


def test_second_reencryption_rejected_while_active():
    ctrl = make("secpm")
    ctrl.rsr = Rsr(0, 0)
    with pytest.raises(RuntimeError):
        ctrl.reencrypt_page(1)


def test_snapshot_restore_preserves_data():
    ctrl = make("secpm")
    rng = random.Random(3)
    values = {a * 64: rng.randbytes(64) for a in range(10)}
    for addr, value in values.items():
        ctrl.handle_flush(addr, value)
    snap = ctrl.snapshot()
    restored = Controller.from_snapshot(ctrl.cfg, snap)
    for addr, value in values.items():
        assert restored.handle_read(addr) == value


def test_log_slots_do_not_overlap():
    ctrl = make("secpm", cores=2)
    cfg = ctrl.cfg
    slot_bytes = cfg.slot_lines * 64
    area = cfg.log_slots * slot_bytes  # one core's slots
    spans = set()
    for core in range(2):
        start = cfg.data_bytes + core * area
        # Sequence numbers past log_slots reuse the core's own slots.
        for seq in range(2 * cfg.log_slots):
            base = cfg.log_slot_base(core, seq)
            assert start <= base and base + slot_bytes <= start + area
            spans.add((base, base + slot_bytes))
    assert len(spans) == 2 * cfg.log_slots
    spans = sorted(spans)
    assert [start for start, _ in spans] == list(cfg.log_headers)
    assert all(spans[i][1] <= spans[i + 1][0] for i in range(len(spans) - 1))
    # The whole log area fits inside the mapped data region.
    last_page = (spans[-1][1] - 1) // 4096
    assert last_page < ctrl.map.data_region_span == cfg.mapped_pages

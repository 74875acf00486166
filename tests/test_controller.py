"""The controller against ``PaperController``, the reference written from
the paper's flush sequence, which also decides the crash boundaries each
step announces; then what that reference does not model: timing,
rejected inputs and pad-reuse counting.  A few direct checks of the mode
flags, of where a flush puts its counter and of the read-back's power
stay too: each names its fault without going through the reference."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule, run_state_machine_as_test)

from _bit_loop import line_from, reference_serialize
from _paper_controller import PaperController
from secpmsim.config import COUNTER_REGION_BASE, LINE, MODES, PAGE, Config
from secpmsim.controller import Controller, Mode, Rsr, derive_key
from secpmsim.counters import CounterLine
from secpmsim.nvm import CrashSnapshot
from secpmsim.write_queue import Origin

# The machine's budget, for each mode x register on its own.
EXAMPLES, STEPS = 12, 20


class Crash(Exception):
    pass


def crash_in_flush(sim, address, plaintext, k):
    """Flush through ``sim`` and crash at its k-th boundary, or after the
    flush if it announces fewer; returns the labels and the image left."""
    labels = []

    def hook(label):
        labels.append(label)
        if len(labels) > k:
            raise Crash

    sim.boundary_hook = hook
    try:
        sim.handle_flush(address, plaintext)
    except Crash:
        pass
    return labels, sim.snapshot()


page_lines = st.tuples(st.integers(0, 3), st.integers(0, 3))
plaintexts = st.binary(min_size=LINE, max_size=LINE)


class ControllerMatchesPaper(RuleBasedStateMachine):
    """``Controller`` and ``PaperController`` take the same flushes, reads,
    fences, counter-cache flushes and crashes, over 2-4 pages, a 1-2-set
    counter cache and a 2-4-entry queue.  Page 0 starts with every minor at
    126 or more, so it re-encrypts within two flushes, and crashes
    interrupt that.  ``idle_drain`` is left out: its drains depend on time,
    which the reference does not model."""

    def __init__(self, mode, use_register):
        super().__init__()
        self.mode, self.use_register = mode, use_register
        # Encrypting nothing, or writing counters through and staging
        # counter and data in the register, promises no torn line.
        self.promised = mode == "unsec-pm" or (
            mode != "secpm-no-cwt" and use_register)

    @initialize(queue_len=st.integers(2, 4), sets=st.integers(1, 2),
                ways=st.integers(1, 2), pages=st.integers(2, 4),
                shift=st.integers(0, 1),
                warmup=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                                          plaintexts), max_size=6))
    def start(self, queue_len, sets, ways, pages, shift, warmup):
        self.cfg = Config(mode=self.mode, use_register=self.use_register,
                          workload="array", queue_len=queue_len,
                          cache_size=LINE * sets * ways, cache_ways=ways)
        assert self.cfg.crash_consistent == self.promised
        self.pages = pages
        self.written = {}  # address -> the last plaintext queued for it
        # Minors 127 and 126 in turn: the first or second flush to a line
        # of page 0 re-encrypts the page.
        hot_page = SimpleNamespace(
            major=1, minors=[127 - (i + shift) % 2 for i in range(64)])
        image = {COUNTER_REGION_BASE: reference_serialize(hot_page)}
        self.restart(CrashSnapshot(dict(image)), image, None)
        # A run may leave rules out, so a few flushes to the other pages
        # give every rule lines and counters to act on.  Page 0 is left to
        # the rules, so that crashes interrupt its re-encryption.
        for page, line, plaintext in warmup:
            self.flush((1 + page % (pages - 1), line), plaintext)

    def restart(self, snapshot, image, rsr):
        self.ctrl = Controller.from_snapshot(self.cfg, snapshot)
        self.model = PaperController(self.cfg, derive_key(self.cfg.seed),
                                     image, rsr, self.written)
        self.labels = [], []
        self.ctrl.boundary_hook = self.labels[0].append
        self.model.boundary_hook = self.labels[1].append

    def address(self, where):
        page, line = where
        return page % self.pages * PAGE + line * LINE

    def check_read(self, address):
        got = self.ctrl.handle_read(address)
        assert got == self.model.handle_read(address)
        if address in self.written:
            assert got == self.written[address]

    @rule(where=page_lines, plaintext=plaintexts)
    def flush(self, where, plaintext):
        for sim in self.ctrl, self.model:
            sim.handle_flush(self.address(where), plaintext)

    @rule(where=page_lines)
    def read(self, where):
        self.check_read(self.address(where))

    @rule()
    def fence(self):
        for sim in self.ctrl, self.model:
            sim.fence()

    @rule()
    def flush_counter_cache(self):
        for sim in self.ctrl, self.model:
            sim.flush_counter_cache()

    # A crash inside an ordinary flush, or inside a page re-encryption.
    @rule(where=page_lines, plaintext=plaintexts,
          k=st.integers(0, 6) | st.integers(7, 200))
    def crash_and_recover(self, where, plaintext, k):
        """Crash both at the same boundary of a flush and recover each from
        its own durable image.  A promising configuration then reads back
        every address's last queued plaintext; the others may tear, so only
        the lines they write from then on must read back."""
        address = self.address(where)
        labels, snapshot = crash_in_flush(self.ctrl, address, plaintext, k)
        model_labels, (image, rsr) = crash_in_flush(self.model, address,
                                                    plaintext, k)
        assert labels == model_labels
        self.same_state()  # taking the image changed neither side
        assert {a: bytes(v) for a, v in snapshot.store.items()} == image
        got = snapshot.rsr
        assert rsr == (None if got is None
                       else (got.page_number, got.old_major, got.done_bits))
        self.restart(snapshot, image, rsr)
        if not self.promised:
            self.written.clear()
        for address in self.written:
            self.check_read(address)

    @invariant()
    def same_state(self):
        ctrl, model = self.ctrl, self.model
        assert ({a: bytes(v) for a, v in ctrl.nvm.store.items()}
                == model.nvm.store)
        assert ([(e.address, bytes(e.payload), e.origin)
                 for e in ctrl.queue.entries]
                == [(e.address, e.payload, e.origin)
                    for e in model.queue.entries])
        assert ((ctrl.nvm.writes, ctrl.queue.merged, ctrl.cache.hits,
                 ctrl.cache.misses, ctrl.reencryptions, ctrl.otp_reuse)
                == (model.nvm.writes, model.queue.merged, model.cache.hits,
                    model.cache.misses, model.reencryptions, model.otp_reuse))
        assert self.labels[0] == self.labels[1]


@pytest.mark.parametrize("use_register", [True, False])
@pytest.mark.parametrize("mode", MODES)
def test_controller_matches_the_paper_model(mode, use_register):
    # No shrink phase: a failing program is at most STEPS long, and
    # shrinking one took minutes.
    run_state_machine_as_test(
        lambda: ControllerMatchesPaper(mode, use_register),
        settings=settings(max_examples=EXAMPLES, stateful_step_count=STEPS,
                          deadline=None, phases=[Phase.explicit, Phase.reuse,
                                                 Phase.generate]))


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


def test_unencrypted_flush_appends_plaintext_only():
    ctrl = make("unsec-pm")
    ctrl.handle_flush(0, b"\5" * 64)
    assert [e.origin for e in ctrl.queue.entries] == [Origin.DATA]
    assert ctrl.queue.entries[0].payload == b"\5" * 64


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


def test_flush_rejects_short_payload():
    ctrl = make()
    with pytest.raises(ValueError):
        ctrl.handle_flush(0, b"short")


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

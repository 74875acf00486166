import random

import pytest
from _every_slot_recover import recover_every_slot

from secpmsim.config import Config
from secpmsim.controller import Controller
from secpmsim.txn import (
    TxnDescriptor,
    build_end_tag,
    build_header,
    end_tag_matches,
    execute,
    parse_header,
    recover,
    run_transaction,
    written_headers,
)


def make_cfg(**kw):
    kw.setdefault("mode", "secpm")
    kw.setdefault("workload", "array")
    kw.setdefault("txn_size", 256)
    return Config(**kw)


def write_set(n, seed=0, base=0):
    rng = random.Random(seed)
    return [(base + i * 64, rng.randbytes(64)) for i in range(n)]


def three_regions(seed):
    rng = random.Random(seed)
    return [(rbase + j * 64, rng.randbytes(64))
            for rbase in (0, 8192, 16384) for j in range(2)]


def test_header_round_trip():
    regions = [(0, 4), (4096, 1)]
    raw = build_header(77, regions)
    assert len(raw) == 64
    assert parse_header(raw) == (77, regions)


def test_header_bytes():
    """magic | nregions | txn_id | (base, nlines) x 3, big-endian, unused
    regions zero."""
    assert build_header(77, [(0, 4), (4096, 1)]) == bytes.fromhex(
        "53504c47" "00000002" "000000000000004d"
        "0000000000000000" "0000000000000004"
        "0000000000001000" "0000000000000001"
        "0000000000000000" "0000000000000000")


def test_parse_header_rejects_garbage():
    assert parse_header(bytes(64)) is None
    assert parse_header(b"SPLG" + bytes(60)) is None  # nregions == 0
    bad = build_header(1, [(33, 1)])  # misaligned base
    assert parse_header(bad) is None


def test_end_tag_round_trip():
    tag = build_end_tag(42)
    assert len(tag) == 64
    assert end_tag_matches(tag, 42)
    assert not end_tag_matches(tag, 43)
    assert not end_tag_matches(bytes(64), 42)


def test_regions_groups_contiguous_runs():
    txn = TxnDescriptor(0, write_set(4))
    assert txn.regions() == [(0, 4)]
    scattered = TxnDescriptor(0, [(0, bytes(64)), (4096, bytes(64))])
    assert scattered.regions() == [(0, 1), (4096, 1)]
    # A run that breaks restarts as a new region, even at the line right
    # after the first run.
    restarted = TxnDescriptor(0, [(a, bytes(64)) for a in (0, 64, 4096, 128)])
    assert restarted.regions() == [(0, 2), (4096, 1), (128, 1)]


def test_regions_rejects_too_many_runs():
    ws = [(i * 4096, bytes(64)) for i in range(4)]
    with pytest.raises(ValueError):
        TxnDescriptor(0, ws).regions()


@pytest.mark.parametrize("ws", [write_set(1), write_set(4), three_regions(0)],
                         ids=["1-line", "4-line", "3-region"])
def test_transaction_stage_sequence(ws):
    """The old values are read first, all in the prepare stage; then every
    yield comes after one flush, with the stage of its epoch."""
    ctrl = Controller(make_cfg(txn_size=384))
    txn = TxnDescriptor(1, ws)
    steps = []
    handle_read = ctrl.handle_read

    def recording_read(address):
        steps.append(("read", txn.stage))
        return handle_read(address)

    ctrl.handle_read = recording_read
    for label in run_transaction(ctrl, txn):
        steps.append((label, txn.stage))
    n = len(ws)
    assert steps == ([("read", "prepare")] * n
                     + [("log_header", "prepare")]
                     + [("log_old", "prepare")] * n
                     + [("log_end", "prepare")]
                     + [("data", "mutate")] * n
                     + [("invalidate", "commit")])
    assert txn.stage == "commit"


def test_committed_txn_updates_data_and_zeroes_tag():
    ctrl = Controller(make_cfg())
    ws = write_set(4, seed=1)
    txn = TxnDescriptor(5, ws)
    execute(ctrl, txn)
    for addr, value in ws:
        assert ctrl.handle_read(addr) == value
    base = ctrl.cfg.log_slot_base(0, 0)
    end_addr = base + 5 * 64
    assert ctrl.handle_read(end_addr) == bytes(64)


def test_oversized_write_set_rejected():
    ctrl = Controller(make_cfg(txn_size=128))  # slot holds 2 data lines
    txn = TxnDescriptor(0, write_set(3))
    with pytest.raises(ValueError):
        list(run_transaction(ctrl, txn))


def test_recover_undoes_a_write_set_over_three_regions():
    """Each old value goes back to the line the header's regions name, in
    region order, not to a run of lines from the first region's base."""
    cfg = make_cfg(txn_size=384)
    ctrl = Controller(cfg)
    pre, post = three_regions(11), three_regions(12)
    execute(ctrl, TxnDescriptor(0, pre, seq=0))
    txn = TxnDescriptor(1, post, seq=1)
    assert txn.regions() == [(0, 2), (8192, 2), (16384, 2)]
    gen = run_transaction(ctrl, txn)
    for _ in range(1 + 6 + 1 + 6):  # stop after the last data flush
        next(gen)
    for addr, value in post:
        assert ctrl.handle_read(addr) == value
    recovered, undone = recover(ctrl.snapshot(), cfg)
    assert undone == [1]
    for addr, value in pre:
        assert recovered.handle_read(addr) == value


def test_recovery_reads_do_not_grow_with_log_slots(monkeypatch):
    """Each of two cores crashes with a complete, uncommitted log over a
    committed transaction.  Recovery reads as many lines at log_slots 65,536
    as at 64, undoes the same two transactions, and agrees with the
    every-slot reference at 64."""
    def crash_image(log_slots):
        cfg = make_cfg(cores=2, log_slots=log_slots)
        ctrl = Controller(cfg)
        for core in range(2):
            ws = write_set(4, seed=core, base=core * 4096)
            execute(ctrl, TxnDescriptor(2 * core, ws, seq=0, core=core))
        for core in range(2):
            ws = write_set(4, seed=10 + core, base=core * 4096)
            gen = run_transaction(ctrl, TxnDescriptor(2 * core + 1, ws, seq=1,
                                                      core=core))
            # Stop after the last data flush: the end tag is still live.
            for _ in range(1 + 4 + 1 + 4):
                next(gen)
        return ctrl.snapshot(), cfg

    images = {log_slots: crash_image(log_slots) for log_slots in (64, 65536)}
    reads = []
    handle_read = Controller.handle_read

    def counting_read(self, address):
        reads.append(address)
        return handle_read(self, address)

    monkeypatch.setattr(Controller, "handle_read", counting_read)
    counts = {}
    for log_slots, (snapshot, cfg) in images.items():
        reads.clear()
        _, undone = recover(snapshot, cfg)
        assert undone == [1, 3]
        counts[log_slots] = len(reads)
    assert counts[64] == counts[65536]

    snapshot, cfg = images[64]
    got, ref = recover(snapshot, cfg), recover_every_slot(snapshot, cfg)
    assert got[1] == ref[1]
    assert got[0].snapshot().store == ref[0].snapshot().store


def test_flush_and_fence_order(monkeypatch):
    """A transaction flushes the header, old values and end tag, fences,
    flushes the data, fences, zeroes the end tag and fences; recovery of a
    complete log writes the old values back, fences, zeroes the end tag
    and fences."""
    cfg = make_cfg()
    events, stages = [], []
    txn = TxnDescriptor(1, write_set(3, seed=9))
    flush, fence = Controller.handle_flush, Controller.fence

    def recording_flush(self, address, plaintext, now=None):
        events.append(address)
        return flush(self, address, plaintext, now)

    def recording_fence(self):
        events.append("fence")
        stages.append(txn.stage)
        fence(self)

    monkeypatch.setattr(Controller, "handle_flush", recording_flush)
    monkeypatch.setattr(Controller, "fence", recording_fence)
    execute(Controller(cfg), txn)
    base = cfg.log_slot_base(0, 0)
    header_to_end = [base + i * 64 for i in range(5)]
    end = header_to_end[-1]
    data = [addr for addr, _ in txn.write_set]
    assert events == header_to_end + ["fence"] + data + ["fence", end, "fence"]
    assert stages == ["prepare", "mutate", "commit"]

    ctrl = Controller(cfg)
    gen = run_transaction(ctrl, TxnDescriptor(1, write_set(3, seed=10)))
    for _ in range(1 + 3 + 1 + 3):  # stop after the last data flush
        next(gen)
    events.clear()
    _, undone = recover(ctrl.snapshot(), cfg)
    assert undone == [1]
    assert events == data + ["fence", end, "fence"]


@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("log_slots", [1, 3, 64, 65536])
def test_written_headers_is_the_header_filter(cores, log_slots):
    """Over the durable image at every boundary of interleaved transactions
    on every core, and over images with no log line, ``written_headers``
    returns what filtering every stored address by ``log_headers`` returns;
    also with every other written header taken out, so some slots hold
    lines but no header."""
    cfg = make_cfg(cores=cores, log_slots=log_slots, queue_len=4)
    headers = cfg.log_headers
    ctrl = Controller(cfg)
    images = [ctrl.snapshot()]
    ctrl.handle_flush(0, bytes(range(64)))  # data and its counter, no log
    images.append(ctrl.snapshot())
    ctrl.boundary_hook = lambda label: images.append(ctrl.snapshot())
    for seq in range(4):
        ready = [run_transaction(ctrl, TxnDescriptor(
            seq * cores + core, write_set(2, seed=seq, base=core * 8192 + seq * 128),
            seq=seq, core=core)) for core in range(cores)]
        while ready:
            gen = ready.pop(0)
            if next(gen, None) is not None:
                ready.append(gen)
    ctrl.drain_all()
    images.append(ctrl.snapshot())

    slots = set()
    for image in images:
        filtered = sorted(a for a in image.store if a in headers)
        assert written_headers(image.store, headers) == filtered
        gapped = {a: v for a, v in image.store.items() if a not in filtered[::2]}
        assert written_headers(gapped, headers) == filtered[1::2]
        slots.update(filtered)
    assert not written_headers(images[1].store, headers)
    assert len(slots) == cores * min(log_slots, 4)

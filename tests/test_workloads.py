import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secpmsim.config import LINE, PAGE, TXN_SIZES, WORKLOADS, Config
from secpmsim.txn import TxnDescriptor
from secpmsim.workloads import (
    WorkloadSpec,
    export_trace,
    generate,
    import_trace,
)


# Bounds that no trace in these tests reaches unless a test sets its own.
BOUNDS = dict(footprint=1 << 30, max_lines=64)


def spec_for(kind, **kw):
    kw.setdefault("txn_size", 256)
    kw.setdefault("txn_count", 200)
    return WorkloadSpec(kind=kind, **kw)


@pytest.mark.parametrize("kind", WORKLOADS)
def test_addresses_aligned_and_in_footprint(kind):
    spec = spec_for(kind, footprint=1 << 30)
    for txn in generate(spec):
        assert sum(len(p) for _, p in txn.write_set) == spec.txn_size
        for addr, payload in txn.write_set:
            assert addr % LINE == 0
            assert 0 <= addr < spec.footprint
            assert len(payload) == LINE


@pytest.mark.parametrize("kind", WORKLOADS)
@pytest.mark.parametrize("txn_size", [64, 256, 4096])
def test_write_sets_fit_three_regions(kind, txn_size):
    spec = spec_for(kind, txn_size=txn_size, txn_count=100, footprint=1 << 30)
    for txn in generate(spec):
        assert len(txn.regions()) <= 3


@pytest.mark.parametrize("kind", WORKLOADS)
@pytest.mark.parametrize("txn_size", TXN_SIZES)
def test_smallest_accepted_footprint_holds_every_write(kind, txn_size):
    footprint = max(PAGE, 4 * txn_size)
    Config(workload=kind, txn_size=txn_size, footprint=footprint)
    for txn in generate(spec_for(kind, txn_size=txn_size, footprint=footprint)):
        assert all(0 <= addr < footprint for addr, _ in txn.write_set)


@st.composite
def accepted_specs(draw):
    """A workload, a txn_size from 64 B to 16 KiB (odd line counts too) and
    a footprint that ``Config`` accepts for them."""
    kind = draw(st.sampled_from(WORKLOADS))
    txn_size = draw(st.integers(min_value=1, max_value=256)) * LINE
    least_pages = -(-4 * txn_size // PAGE)
    footprint = draw(st.integers(min_value=least_pages,
                                 max_value=least_pages + 8)) * PAGE
    Config(workload=kind, txn_size=txn_size, footprint=footprint)
    return spec_for(kind, txn_size=txn_size, txn_count=40, footprint=footprint,
                    seed=draw(st.integers(min_value=0, max_value=1 << 16)))


@given(spec=accepted_specs())
@settings(max_examples=60, deadline=None)
def test_every_accepted_spec_writes_inside_its_footprint(spec):
    for txn in generate(spec):
        addrs = [addr for addr, _ in txn.write_set]
        assert len(addrs) * LINE == spec.txn_size
        assert len(set(addrs)) == len(addrs)
        assert all(addr % LINE == 0 and 0 <= addr < spec.footprint
                   for addr in addrs)
        txn.regions()


@pytest.mark.parametrize("kind", WORKLOADS)
def test_generation_is_deterministic(kind):
    a = generate(spec_for(kind, footprint=1 << 30, seed=5))
    b = generate(spec_for(kind, footprint=1 << 30, seed=5))
    assert [t.write_set for t in a] == [t.write_set for t in b]
    c = generate(spec_for(kind, footprint=1 << 30, seed=6))
    assert [t.write_set for t in a] != [t.write_set for t in c]


def test_log_slots_cycle():
    stream = generate(spec_for("array", footprint=1 << 30))
    assert [t.seq for t in stream[:6]] == [0, 1, 2, 3, 4, 5]
    cfg = Config(workload="array", txn_size=256, log_slots=4)
    bases = [cfg.log_slot_base(0, t.seq) for t in stream[:6]]
    assert len(set(bases[:4])) == 4 and bases[4:] == bases[:2]


def test_from_config_fills_defaults():
    cfg = Config(workload="btree", txn_size=1024, txn_count=7, seed=9)
    spec = WorkloadSpec.from_config(cfg, core=2)
    assert spec.kind == "btree" and spec.core == 2
    assert spec.footprint == 2 << 30  # workload default
    assert spec.seed == 9


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        generate(WorkloadSpec(kind="deque", footprint=1 << 30, txn_size=256,
                              txn_count=1))
    with pytest.raises(ValueError):
        generate(WorkloadSpec(kind="array", footprint=1 << 30, txn_size=100,
                              txn_count=1))


def test_queue_workload_is_contiguous():
    spec = spec_for("queue", footprint=1 << 20, txn_count=500)
    for txn in generate(spec):
        regions = txn.regions()
        assert len(regions) <= 2  # one run, or two at the ring wrap
        if len(regions) == 2:
            assert regions[-1][0] == 0 or regions[0][0] == 0


def test_trace_round_trip():
    stream = generate(spec_for("hashtable", footprint=1 << 30, seed=4))
    buf = io.StringIO()
    export_trace(stream, buf)
    buf.seek(0)
    back = import_trace(buf, **BOUNDS, seed=4)
    assert [t.txn_id for t in back] == [t.txn_id for t in stream]
    assert [[a for a, _ in t.write_set] for t in back] == \
        [[a for a, _ in t.write_set] for t in stream]


def test_import_trace_checks_record_end_against_footprint():
    text = "TXN 0 WRITE 0x0 64\nTXN 1 WRITE 0xfc0 128\n"
    with pytest.raises(ValueError,
                       match="trace line 2: .*outside data region"):
        import_trace(io.StringIO(text), footprint=0x103f, max_lines=64)
    assert len(import_trace(io.StringIO(text), footprint=0x1040,
                            max_lines=64)) == 2


def test_import_trace_counts_regions_and_lines_per_transaction():
    # Records 1-4 of transaction 0 are contiguous: one region of 4 lines.
    text = ("".join(f"TXN 0 WRITE {a:#x} 64\n" for a in range(0, 256, 64))
            + "TXN 1 WRITE 0x2000 64\nTXN 0 WRITE 0x1000 64\n"
            "TXN 0 WRITE 0x3000 64\n")
    txns = import_trace(io.StringIO(text), footprint=1 << 30, max_lines=6)
    assert [len(t.regions()) for t in txns] == [3, 1]
    with pytest.raises(ValueError, match="trace line 7: transaction 0 writes"
                       " 6 lines, more than the 5"):
        import_trace(io.StringIO(text), footprint=1 << 30, max_lines=5)
    with pytest.raises(ValueError, match="trace line 6: transaction 0: write"
                       " set spans 4 regions"):
        import_trace(io.StringIO(text.replace("0x80", "0x4000")), **BOUNDS)


def test_import_trace_checks_regions_only_where_a_record_breaks_a_run(
        monkeypatch):
    """A record that continues its transaction's previous record adds no
    region, so only the first record and each break re-walk the write set:
    a long contiguous transaction imports in time linear in its records."""
    calls = []
    regions = TxnDescriptor.regions
    monkeypatch.setattr(TxnDescriptor, "regions",
                        lambda txn: calls.append(txn.txn_id) or regions(txn))
    text = ("".join(f"TXN 0 WRITE {a:#x} 64\n" for a in range(0, 4096, 64))
            + "TXN 1 WRITE 0x2000 128\nTXN 1 WRITE 0x2080 64\n"
            "TXN 0 WRITE 0x1000 64\nTXN 0 WRITE 0x3000 64\n")
    txns = import_trace(io.StringIO(text), footprint=1 << 30, max_lines=66)
    assert calls == [0, 1, 0]
    assert [len(t.write_set) for t in txns] == [66, 3]
    assert [t.regions() for t in txns] == [[(0, 65), (0x3000, 1)],
                                           [(0x2000, 3)]]


def _records(*records):
    return "".join(f"TXN {t} WRITE {a:#x} {s}\n" for t, a, s in records)


_THREE = [(0, 0x0, 64), (0, 0x1000, 64), (0, 0x2000, 64)]


@pytest.mark.parametrize("text, outcome, calls", [
    (_records((0, 0x0, 128), (0, 0x80, 64), (0, 0xc0, 256)),
     [[(0, 7)]], 1),
    (_records(*_THREE, (0, 0x2040, 128)),
     [[(0, 1), (0x1000, 1), (0x2000, 3)]], 3),
    (_records(*_THREE, (0, 0x3000, 64)), 4, 4),
    (_records(*_THREE, (0, 0x2000, 64)), 4, 4),
    (_records(*_THREE[:2], (0, 0x2040, 64), (0, 0x2000, 64)), 4, 4),
    (_records(*_THREE[:2], (0, 0x2000, 128), (0, 0x2040, 64)), 4, 4),
    (_records(*_THREE, (0, 0x40, 64)), 4, 4),
    (_records(*_THREE, (1, 0x2040, 64), (0, 0x2040, 64)),
     [[(0, 1), (0x1000, 1), (0x2000, 2)], [(0x2040, 1)]], 4),
    (_records(*_THREE, (1, 0x3000, 64), (0, 0x3040, 64)), 5, 5),
], ids=["joins-stay-one-region", "join-at-the-region-limit",
        "break-past-the-limit", "rewrite-of-the-last-line",
        "record-ending-where-the-last-began",
        "record-starting-inside-the-last-record", "join-onto-an-earlier-run",
        "join-across-another-transactions-record",
        "record-after-another-transactions-end"])
def test_import_trace_joins_a_record_only_to_its_transactions_last_line(
        monkeypatch, text, outcome, calls):
    """A record joins its transaction's run only where it starts one line
    past that transaction's last written line; any other record, a rewrite
    or one that runs on from an earlier run or another transaction's
    record, is a break that re-checks the regions.  ``outcome`` is each
    transaction's regions, or the line whose break exceeds the limit."""
    seen = []
    regions = TxnDescriptor.regions
    monkeypatch.setattr(TxnDescriptor, "regions",
                        lambda txn: seen.append(txn.txn_id) or regions(txn))
    if isinstance(outcome, int):
        with pytest.raises(ValueError, match=f"trace line {outcome}:"
                           " transaction 0: write set spans 4 regions"):
            import_trace(io.StringIO(text), **BOUNDS)
        assert len(seen) == calls
    else:
        txns = import_trace(io.StringIO(text), **BOUNDS)
        assert len(seen) == calls
        assert [t.regions() for t in txns] == outcome


def test_import_trace_is_deterministic():
    text = "TXN 0 WRITE 0x0 128\nTXN 1 WRITE 0x1000 64\n"
    a = import_trace(io.StringIO(text), **BOUNDS, seed=1)
    b = import_trace(io.StringIO(text), **BOUNDS, seed=1)
    assert [t.write_set for t in a] == [t.write_set for t in b]

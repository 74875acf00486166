"""Property-based checks for the core invariants."""

import random
from collections import OrderedDict
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _bit_loop import (
    line_from,
    minors_of,
    reference_deserialize,
    reference_serialize,
)
from secpmsim.config import COUNTER_REGION_BASE, Config
from secpmsim.controller import Controller
from secpmsim.counters import (
    MINOR_MAX,
    CounterLine,
    increment_minor,
)
from secpmsim.crypto import OtpEngine, decrypt_line, encrypt_line

KEY = bytes(range(16))
ENGINE = OtpEngine(KEY)

lines = st.binary(min_size=64, max_size=64)
addresses = st.integers(min_value=0, max_value=(1 << 40)).map(lambda v: v * 64)
counters = st.integers(min_value=0, max_value=(1 << 71) - 1)


@given(plain=lines, addr=addresses, ctr=counters)
def test_encryption_round_trip(plain, addr, ctr):
    pad = ENGINE.generate(addr, ctr)
    assert decrypt_line(encrypt_line(plain, pad), pad) == plain


@given(addr=addresses, ctr=counters)
def test_pad_is_pure_function(addr, ctr):
    assert ENGINE.generate(addr, ctr) == OtpEngine(KEY).generate(addr, ctr)


@given(
    major=st.integers(min_value=0, max_value=(1 << 64) - 1),
    minors=st.lists(st.integers(min_value=0, max_value=127),
                    min_size=64, max_size=64),
)
def test_counter_line_serde_identity(major, minors):
    line = line_from(major, minors)
    back = CounterLine.deserialize(line.serialize())
    assert back == line


majors = st.integers(min_value=0, max_value=(1 << 64) - 1)
minor_lists = st.lists(st.integers(min_value=0, max_value=MINOR_MAX),
                       min_size=64, max_size=64)


@given(major=majors, minors=minor_lists)
def test_serialize_matches_bit_loop(major, minors):
    line = CounterLine(major=major)
    for i, m in enumerate(minors):
        line.set_minor(i, m)
    assert minors_of(line) == minors
    assert line.serialize() == reference_serialize(SimpleNamespace(
        major=major, minors=minors))


@given(raw=lines)
def test_deserialize_matches_bit_loop(raw):
    line = CounterLine.deserialize(raw)
    assert (line.major, minors_of(line)) == reference_deserialize(raw)


@given(minors=minor_lists, index=st.integers(min_value=0, max_value=63),
       bad=st.sampled_from([-1, 128, 255]) | st.integers(max_value=-1)
       | st.integers(min_value=MINOR_MAX + 1))
@example(minors=[0] * 64, index=0, bad=-1)
@example(minors=[0] * 64, index=31, bad=128)
@example(minors=[MINOR_MAX] * 64, index=63, bad=255)
def test_serialize_rejects_out_of_range_minor_like_bit_loop(minors, index, bad):
    """A minor the bit loop cannot serialize never gets into a line."""
    bad_minors = list(minors)
    bad_minors[index] = bad
    with pytest.raises(ValueError):
        reference_serialize(SimpleNamespace(major=0, minors=bad_minors))
    line = line_from(0, minors)
    with pytest.raises(ValueError):
        line.set_minor(index, bad)
    assert line.serialize() == reference_serialize(SimpleNamespace(
        major=0, minors=minors))


line_steps = st.lists(
    st.tuples(st.sampled_from(["increment", "set", "serialize",
                               "deserialize"]),
              st.integers(min_value=0, max_value=63),
              st.sampled_from([0, MINOR_MAX - 1, MINOR_MAX])
              | st.integers(min_value=0, max_value=MINOR_MAX)),
    max_size=200)


@given(major=st.integers(min_value=0, max_value=(1 << 63) - 1), steps=line_steps)
@settings(max_examples=150, deadline=None)
def test_packed_line_matches_list_reference(major, steps):
    """Random edits of a packed line agree with a plain list of minors
    serialized by the bit loop."""
    line = CounterLine(major=major)
    ref = SimpleNamespace(major=major, minors=[0] * 64)
    for op, i, value in steps:
        if op == "increment":
            if ref.minors[i] == MINOR_MAX:
                assert increment_minor(line, i) is False
            else:
                assert increment_minor(line, i) is True
                ref.minors[i] += 1
        elif op == "set":
            line.set_minor(i, value)
            ref.minors[i] = value
        elif op == "serialize":
            assert line.serialize() == reference_serialize(ref)
        else:
            line = CounterLine.deserialize(reference_serialize(ref))
        assert (line.major, minors_of(line)) == (ref.major, ref.minors)
        assert line.counter_value(i) == (ref.major << 7) | ref.minors[i]
    assert reference_deserialize(line.serialize()) == (ref.major, ref.minors)


class ReferenceLru:
    """Fully-ordered reference model for one cache set."""

    def __init__(self, ways):
        self.ways = ways
        self.order = []  # least recent first

    def access(self, key):
        hit = key in self.order
        if hit:
            self.order.remove(key)
        elif len(self.order) >= self.ways:
            self.order.pop(0)
        self.order.append(key)
        return hit


@given(seed=st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=25, deadline=None)
def test_cache_matches_lru_oracle(seed):
    from secpmsim.counters import CounterCache

    ways = 4
    cache = CounterCache(capacity_bytes=64 * ways, ways=ways)  # one set
    oracle = ReferenceLru(ways)
    rng = random.Random(seed)
    for _ in range(400):
        addr = rng.randrange(12) * 64
        expect_hit = oracle.access(addr)
        got = cache.lookup(addr)
        assert (got is not None) == expect_hit
        if got is None:
            cache.insert(addr, CounterLine())



class EagerCounterCache:
    """Reference cache: every set allocated up front, dirty lines found by
    scanning all sets in index order."""

    def __init__(self, nsets, ways):
        self.nsets, self.ways = nsets, ways
        self.sets = [OrderedDict() for _ in range(nsets)]
        self.hits = self.misses = 0

    def lookup(self, address):
        s = self.sets[(address // 64) % self.nsets]
        if address not in s:
            self.misses += 1
            return None
        s.move_to_end(address)
        self.hits += 1
        return s[address][0]

    def insert(self, address, line, dirty):
        s = self.sets[(address // 64) % self.nsets]
        if address in s:
            s[address] = (line, dirty)
            s.move_to_end(address)
            return None
        victim = None
        if len(s) >= self.ways:
            vaddr, (vline, vdirty) = s.popitem(last=False)
            if vdirty:
                victim = (vaddr, vline)
        s[address] = (line, dirty)
        return victim

    def dirty_entries(self):
        return [(a, line) for s in self.sets
                for a, (line, d) in s.items() if d]

    def mark_clean(self, address):
        s = self.sets[(address // 64) % self.nsets]
        if address in s:
            s[address] = (s[address][0], False)


@given(seed=st.integers(min_value=0, max_value=1 << 16),
       nsets=st.integers(min_value=1, max_value=4),
       ways=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_cache_matches_eager_reference(seed, nsets, ways):
    from secpmsim.counters import CounterCache

    cache = CounterCache(capacity_bytes=64 * nsets * ways, ways=ways)
    ref = EagerCounterCache(nsets, ways)
    rng = random.Random(seed)
    for step in range(300):
        addr = rng.randrange(4 * nsets * ways) * 64
        op = rng.choice(["insert", "insert", "lookup", "clean", "dirty"])
        if op == "insert":
            line, dirty = CounterLine(major=step), rng.random() < 0.5
            assert cache.insert(addr, line) == ref.insert(addr, line, dirty)
            if dirty:
                cache.mark_dirty(addr)
        elif op == "lookup":
            assert cache.lookup(addr) == ref.lookup(addr)
        elif op == "clean":
            cache.mark_clean(addr)
            ref.mark_clean(addr)
        else:
            assert cache.dirty_entries() == ref.dirty_entries()
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
    assert cache.dirty_entries() == ref.dirty_entries()


def _final_counter_region(cwr_enabled, trace):
    cfg = Config(mode="secpm" if cwr_enabled else "secpm-no-cwr",
                 workload="array", txn_size=64, txn_count=1, queue_len=16)
    ctrl = Controller(cfg)
    for addr, payload in trace:
        ctrl.handle_flush(addr, payload)
    ctrl.drain_all()
    return {a: p for a, p in ctrl.nvm.store.items()
            if a >= COUNTER_REGION_BASE}


@given(seed=st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=20, deadline=None)
def test_merging_never_loses_counter_state(seed):
    """The durable counter region after a full drain is byte-identical
    with and without merging: dropping subsumed entries loses nothing."""
    rng = random.Random(seed)
    trace = [(rng.randrange(256) * 64, rng.randbytes(64)) for _ in range(60)]
    assert _final_counter_region(True, trace) == _final_counter_region(False, trace)


@given(seed=st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=10, deadline=None)
def test_run_determinism(seed):
    from secpmsim.runner import run_experiment
    from secpmsim.stats import emit_report

    cfg = Config(mode="secpm", workload="hashtable", txn_size=256,
                 txn_count=20, seed=seed)
    a = emit_report([run_experiment(cfg)])
    b = emit_report([run_experiment(cfg)])
    assert a == b

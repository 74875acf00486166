"""Counter lines against the bit loop of ``_bit_loop.py``, the counter
cache against ``EagerCounterCache``, and what neither reference models."""

import random
import tracemalloc
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
from secpmsim.counters import (
    MINOR_MAX,
    AddressError,
    CounterAddressMap,
    CounterCache,
    CounterLine,
    increment_minor,
)

BASE = 1 << 40

minor_lists = st.lists(st.integers(min_value=0, max_value=MINOR_MAX),
                       min_size=64, max_size=64)
line_steps = st.lists(
    st.tuples(st.sampled_from(["increment", "set", "serialize",
                               "deserialize"]),
              st.integers(min_value=0, max_value=63),
              st.sampled_from([0, MINOR_MAX - 1, MINOR_MAX])
              | st.integers(min_value=0, max_value=MINOR_MAX)),
    max_size=200)


@given(major=st.integers(min_value=0, max_value=(1 << 64) - 1),
       steps=line_steps)
@example(major=(1 << 64) - 1,
         steps=[("set", i, MINOR_MAX) for i in range(64)]
         + [("serialize", 0, 0), ("increment", 3, 0), ("deserialize", 0, 0)])
@example(major=0, steps=[("serialize", 0, 0), ("deserialize", 0, 0),
                         ("increment", 7, 0)])
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


@given(raw=st.binary(min_size=64, max_size=64))
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


def test_deserialize_rejects_wrong_length():
    with pytest.raises(ValueError):
        CounterLine.deserialize(b"\0" * 63)


def test_increment_rejects_bad_index():
    with pytest.raises(ValueError):
        increment_minor(CounterLine(), 64)


def test_locate_counter_math():
    cmap = CounterAddressMap(data_region_span=4)
    assert cmap.locate(0) == (BASE, 0)
    assert cmap.locate(64) == (BASE, 1)
    assert cmap.locate(4096) == (BASE + 64, 0)
    assert cmap.locate(4096 + 63 * 64) == (BASE + 64, 63)


def test_locate_rejects_misaligned_and_outside():
    cmap = CounterAddressMap(data_region_span=2)
    with pytest.raises(AddressError):
        cmap.locate(33)
    with pytest.raises(AddressError):
        cmap.locate(2 * 4096)  # one page past the region


def test_counter_region_is_disjoint():
    cmap = CounterAddressMap(data_region_span=100)
    counter_lines = {cmap.locate(page * 4096)[0] for page in range(100)}
    assert len(counter_lines) == 100 and min(counter_lines) == BASE
    assert 100 * 4096 <= BASE  # the data region ends below the counter region


def test_cache_rejects_tiny_capacity():
    with pytest.raises(ValueError):
        CounterCache(capacity_bytes=64, ways=8)


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

    def mark(self, address, dirty):
        s = self.sets[(address // 64) % self.nsets]
        if address in s:
            s[address] = (s[address][0], dirty)


@given(seed=st.integers(min_value=0, max_value=1 << 16),
       nsets=st.integers(min_value=1, max_value=4),
       ways=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_cache_matches_eager_reference(seed, nsets, ways):
    cache = CounterCache(capacity_bytes=64 * nsets * ways, ways=ways)
    ref = EagerCounterCache(nsets, ways)
    rng = random.Random(seed)
    for step in range(300):
        addr = rng.randrange(4 * nsets * ways) * 64
        op = rng.choice(["insert", "insert", "lookup", "write", "clean",
                         "dirty"])
        if op == "insert":
            line, dirty = CounterLine(major=step), rng.random() < 0.5
            assert cache.insert(addr, line) == ref.insert(addr, line, dirty)
            if dirty:
                cache.mark_dirty(addr)
        elif op in ("lookup", "write"):
            line = cache.lookup(addr)
            assert line is ref.lookup(addr)
            if op == "write" and line is not None:
                # A write-back flush: lookup, bump, then mark dirty.
                increment_minor(line, step % 64)
                cache.mark_dirty(addr)
                ref.mark(addr, True)
        elif op == "clean":
            cache.mark_clean(addr)
            ref.mark(addr, False)
        else:
            assert cache.dirty_entries() == ref.dirty_entries()
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
    assert cache.dirty_entries() == ref.dirty_entries()


def test_new_cache_sees_nothing_of_a_used_one():
    used = CounterCache(capacity_bytes=64 * 8, ways=2)  # 4 sets, 2 ways
    for i in range(40):
        victim = used.insert(i * 64, CounterLine(major=i))
        if i % 3 == 0:
            used.mark_dirty(i * 64)
        used.lookup(i * 64)
        used.lookup((i + 7) * 64)
        if victim is not None:
            used.mark_clean(i * 64)
    assert used.dirty_entries()
    for capacity in (64 * 8, 64 * 32):
        fresh = CounterCache(capacity_bytes=capacity, ways=2)
        assert all(fresh.lookup(i * 64) is None for i in range(48))
        assert (fresh.hits, fresh.misses) == (0, 48)
        assert fresh.dirty_entries() == []
        fresh.mark_clean(0)
        assert fresh._sets == {}


def test_controller_allocation_does_not_grow_with_cache_size():
    """A 4 GiB cache has 2**23 sets; a new controller allocates none."""
    from secpmsim.config import Config
    from secpmsim.controller import Controller

    tracemalloc.start()
    try:
        Controller(Config(cache_size=1 << 32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_flush_counter_cache_is_free_under_write_through():
    from secpmsim.config import Config
    from secpmsim.controller import Controller

    ctrl = Controller(Config(mode="secpm", workload="array", txn_size=256,
                             txn_count=10))
    for i in range(6):
        ctrl.handle_flush(i * 64, bytes([i]) * 64)
    queued = [(e.address, e.payload, e.origin) for e in ctrl.queue.entries]
    clock = ctrl.clock
    boundaries = []
    ctrl.boundary_hook = boundaries.append
    ctrl.flush_counter_cache()
    assert ctrl.clock == clock
    assert [(e.address, e.payload, e.origin) for e in ctrl.queue.entries] == queued
    assert boundaries == []

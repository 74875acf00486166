import random
import tracemalloc

import pytest

from _bit_loop import line_from, minors_of
from secpmsim.counters import (
    MINOR_MAX,
    AddressError,
    CounterAddressMap,
    CounterCache,
    CounterLine,
    increment_minor,
)

BASE = 1 << 40


def test_counter_line_serializes_to_64_bytes():
    line = line_from(5, [i % 128 for i in range(64)])
    raw = line.serialize()
    assert len(raw) == 64
    assert CounterLine.deserialize(raw) == line


def test_serialize_round_trip_extremes():
    line = line_from((1 << 64) - 1, [MINOR_MAX] * 64)
    assert CounterLine.deserialize(line.serialize()) == line
    zero = CounterLine()
    assert zero.serialize() == b"\0" * 64


def test_deserialize_rejects_wrong_length():
    with pytest.raises(ValueError):
        CounterLine.deserialize(b"\0" * 63)


def test_counter_value_is_concatenation():
    line = CounterLine(major=3)
    line.set_minor(10, 5)
    assert line.counter_value(10) == (3 << 7) | 5


def test_increment_minor_bumps_in_place():
    line = CounterLine(major=4)
    assert increment_minor(line, 7) is True
    assert minors_of(line) == [1 if i == 7 else 0 for i in range(64)]
    assert line.major == 4
    line.set_minor(7, MINOR_MAX)
    image = line.serialize()
    assert increment_minor(line, 7) is False
    assert line.serialize() == image  # overflow leaves the line untouched


def test_increment_overflow_signals_page():
    line = line_from(0, [MINOR_MAX] * 64)
    assert increment_minor(line, 3) is False
    assert minors_of(line) == [MINOR_MAX] * 64


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


def test_cache_hit_miss_counting():
    cache = CounterCache(capacity_bytes=64 * 16, ways=4)
    assert cache.lookup(BASE) is None
    cache.insert(BASE, CounterLine(major=1))
    hit = cache.lookup(BASE)
    assert hit is not None and hit.major == 1
    assert (cache.hits, cache.misses) == (1, 1)


def test_cache_lru_eviction_order():
    cache = CounterCache(capacity_bytes=64 * 2, ways=2)  # one set, two ways
    cache.insert(0, CounterLine(major=0))
    cache.insert(64, CounterLine(major=1))
    cache.lookup(0)  # 0 becomes most recent
    cache.insert(128, CounterLine(major=2))  # evicts 64
    assert cache.lookup(64) is None
    assert cache.lookup(0) is not None
    assert cache.lookup(128) is not None


def test_cache_clean_eviction_drops_silently():
    cache = CounterCache(capacity_bytes=64 * 2, ways=2)
    cache.insert(0, CounterLine())
    cache.insert(64, CounterLine())
    assert cache.insert(128, CounterLine()) is None  # clean victim dropped


def test_cache_dirty_eviction_surfaces_victim():
    cache = CounterCache(capacity_bytes=64 * 2, ways=2)
    cache.insert(0, CounterLine(major=9))
    cache.mark_dirty(0)
    cache.insert(64, CounterLine())
    victim = cache.insert(128, CounterLine())
    assert victim is not None
    vaddr, vline = victim
    assert vaddr == 0 and vline.major == 9


def test_cache_reinsert_updates_in_place():
    cache = CounterCache(capacity_bytes=64 * 8, ways=8)
    cache.insert(0, CounterLine(major=1))
    cache.insert(0, CounterLine(major=2))
    assert cache.lookup(0).major == 2


def test_cache_capacity_never_exceeded():
    cache = CounterCache(capacity_bytes=64 * 32, ways=4)
    rng = random.Random(1)
    for _ in range(500):
        cache.insert(rng.randrange(256) * 64, CounterLine())
    assert all(len(s) <= cache.ways for s in cache._sets.values())


def test_cache_mark_clean():
    cache = CounterCache(capacity_bytes=64 * 2, ways=2)
    cache.insert(0, CounterLine())
    cache.mark_dirty(0)
    assert cache.dirty_entries() == [(0, CounterLine())]
    cache.mark_clean(0)
    assert cache.dirty_entries() == []


def test_cache_rejects_tiny_capacity():
    with pytest.raises(ValueError):
        CounterCache(capacity_bytes=64, ways=8)


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

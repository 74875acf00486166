"""Split-counter storage: one 64-byte counter line per 4 KiB page.

A counter line packs a 64-bit major counter and 64 seven-bit minor
counters (64 + 64*7 = 512 bits).  Line i of a page is encrypted with
``major || minor i``.  A line holds its minors only packed, exactly as in
the durable image: one 448-bit int (``lanes``) with minor 0 in the top
seven bits.  It is built from a major and those lanes or from a 64-byte
image, and read or written one minor at a time, so serializing is one
``to_bytes`` call and a flush bumps a minor in place with one add; a minor
at 127 is left as it is, and the caller re-encrypts the page.

The counter cache is set-associative with LRU replacement per set.  Lines
enter clean and only a write-back controller marks one dirty, so under
write-through operation the set of dirty addresses stays empty and
evictions drop silently.  A cache keeps a set only once a line has been
inserted into it, so building one costs the same at any capacity.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from secpmsim.config import COUNTER_REGION_BASE, LINE, LINES_PER_PAGE, PAGE

MINOR_MAX = 127  # 7-bit minors
LANE_BITS = 7 * LINES_PER_PAGE  # 448 bits of packed minors
_LANES_LIMIT = 1 << LANE_BITS
# Bit offset of minor i inside the packed lanes.
_SHIFT = tuple(7 * (LINES_PER_PAGE - 1 - i) for i in range(LINES_PER_PAGE))


class AddressError(Exception):
    """Address outside the mapped data region."""


class CounterLine:
    """One page's major counter and its 64 minors, packed into ``lanes``."""

    __slots__ = ("major", "lanes")

    def __init__(self, major: int = 0, *, lanes: int = 0):
        if not 0 <= lanes < _LANES_LIMIT:
            raise ValueError("packed minors out of 448-bit range")
        self.major = major
        self.lanes = lanes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterLine):
            return NotImplemented
        return self.major == other.major and self.lanes == other.lanes

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"CounterLine(major={self.major}, lanes={self.lanes:#x})"

    def set_minor(self, minor_index: int, value: int) -> None:
        if not 0 <= minor_index < LINES_PER_PAGE:
            raise ValueError("minor index out of range")
        if not 0 <= value <= MINOR_MAX:
            raise ValueError("minor counter out of 7-bit range")
        shift = _SHIFT[minor_index]
        self.lanes = self.lanes & ~(MINOR_MAX << shift) | value << shift

    def counter_value(self, minor_index: int) -> int:
        """71-bit concatenation major || minor used for encryption."""
        return self.major << 7 | self.lanes >> _SHIFT[minor_index] & MINOR_MAX

    def serialize(self) -> bytes:
        return (self.major << LANE_BITS | self.lanes).to_bytes(LINE, "big")

    @classmethod
    def deserialize(cls, raw: bytes) -> "CounterLine":
        if len(raw) != LINE:
            raise ValueError("counter line must be 64 bytes")
        image = int.from_bytes(raw, "big")
        return cls(image >> LANE_BITS, lanes=image & (_LANES_LIMIT - 1))


def increment_minor(line: CounterLine, minor_index: int) -> bool:
    """Bump one minor in place and return True; at 127, return False and
    leave the line untouched (the page must be re-encrypted)."""
    if not 0 <= minor_index < LINES_PER_PAGE:
        raise ValueError("minor index out of range")
    shift = _SHIFT[minor_index]
    if line.lanes >> shift & MINOR_MAX == MINOR_MAX:
        return False
    line.lanes += 1 << shift
    return True


@dataclass(frozen=True)
class CounterAddressMap:
    """Places the counter line of page p at COUNTER_REGION_BASE + 64*p."""

    data_region_span: int  # pages

    def locate(self, data_line_address: int) -> tuple[int, int]:
        if data_line_address % LINE != 0:
            raise AddressError(f"address {data_line_address:#x} not line-aligned")
        page, offset = divmod(data_line_address, PAGE)
        if not 0 <= page < self.data_region_span:
            raise AddressError(f"address {data_line_address:#x} outside data region")
        return COUNTER_REGION_BASE + LINE * page, offset // LINE

    def counter_line_address(self, page: int) -> int:
        return COUNTER_REGION_BASE + LINE * page


class CounterCache:
    """Set-associative LRU cache of counter lines, 64 B per entry."""

    def __init__(self, capacity_bytes: int, ways: int = 8):
        entries = capacity_bytes // LINE
        if entries < ways:
            raise ValueError("cache smaller than one set")
        self.ways = ways
        self.nsets = entries // ways
        # Set index -> addr -> CounterLine, for the sets filled so far;
        # insertion order is recency order.
        self._sets: dict[int, OrderedDict[int, CounterLine]] = {}
        # Addresses of the resident lines that differ from their durable image.
        self._dirty: set[int] = set()
        self.hits = 0
        self.misses = 0

    def lookup(self, address: int) -> CounterLine | None:
        s = self._sets.get((address // LINE) % self.nsets)
        line = None if s is None else s.get(address)
        if line is None:
            self.misses += 1
            return None
        s.move_to_end(address)
        self.hits += 1
        return line

    def insert(self, address: int, line: CounterLine
               ) -> tuple[int, CounterLine] | None:
        """Install or replace a clean entry; returns an evicted dirty line,
        if any."""
        index = (address // LINE) % self.nsets
        s = self._sets.get(index)
        if s is None:
            s = self._sets[index] = OrderedDict()
        if address in s:
            self._dirty.discard(address)
            s[address] = line
            s.move_to_end(address)
            return None
        victim = None
        if len(s) >= self.ways:
            vaddr, vline = s.popitem(last=False)
            if vaddr in self._dirty:
                self._dirty.remove(vaddr)
                victim = (vaddr, vline)
        s[address] = line
        return victim

    def mark_dirty(self, address: int) -> None:
        """Mark a resident line as newer than its durable image."""
        self._dirty.add(address)

    def dirty_entries(self) -> list[tuple[int, CounterLine]]:
        """Dirty lines in set order, least recently used first in a set."""
        dirty = self._dirty
        out = []
        for index in sorted({(a // LINE) % self.nsets for a in dirty}):
            out.extend((a, line) for a, line in self._sets[index].items()
                       if a in dirty)
        return out

    def mark_clean(self, address: int) -> None:
        self._dirty.discard(address)

"""Reference counter-line codec: one 7-bit minor at a time.

This is the one reference for a counter line.  Three properties in
``test_counters.py`` check the packed ``CounterLine`` against it, a layout
it shares no code with: ``test_packed_line_matches_list_reference``,
``test_deserialize_matches_bit_loop`` and
``test_serialize_rejects_out_of_range_minor_like_bit_loop``.
"""

from types import SimpleNamespace

from secpmsim.counters import MINOR_MAX, CounterLine


def reference_serialize(line):
    """One 7-bit field at a time, minors[0] most significant."""
    packed = 0
    for m in line.minors:
        if m & ~MINOR_MAX:
            raise ValueError("minor counter out of 7-bit range")
        packed = (packed << 7) | m
    return line.major.to_bytes(8, "big") + packed.to_bytes(56, "big")


def reference_deserialize(raw):
    packed = int.from_bytes(raw[8:], "big")
    minors = [0] * 64
    for i in range(63, -1, -1):
        minors[i] = packed & MINOR_MAX
        packed >>= 7
    return int.from_bytes(raw[:8], "big"), minors


def line_from(major, minors):
    """A packed line holding ``major`` and the 64 ``minors``."""
    return CounterLine.deserialize(reference_serialize(
        SimpleNamespace(major=major, minors=minors)))


def minors_of(line):
    """The 64 minors of a packed line, minor 0 from the top seven bits."""
    packed = line.lanes
    minors = [0] * 64
    for i in range(63, -1, -1):
        minors[i] = packed & MINOR_MAX
        packed >>= 7
    return minors

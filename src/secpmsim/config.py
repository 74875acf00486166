"""Run configuration, read from a flat ``key = value`` file and flags, which
share one reader, ``parse_setting``.  A ``Config`` is checked when it is
built and never changes, so every one that exists is valid.

Defaults follow the simulated machine: 4-core 2 GHz x86-64, 1 MB 8-way LRU
counter cache (12 CPU cycles), 32-entry write queue, PCM in 16 banks with
tRCD/tCL/tWR = 48/15/300 ns, and a 40 ns AES pipeline.

``Config`` also owns the address layout: the footprint from address 0, each
core's undo-log slots right above it, and one counter line per page of both
from ``COUNTER_REGION_BASE`` on, which the other two must not reach.  A
config never changes, so each part of the layout is computed once, on
first use.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from enum import Enum


LINE = 64
PAGE = 4096
LINES_PER_PAGE = PAGE // LINE


class Mode(Enum):
    """The four configurations the paper compares."""

    UNSEC_PM = "unsec-pm"
    SECPM_NO_CWT = "secpm-no-cwt"
    SECPM_NO_CWR = "secpm-no-cwr"
    SECPM = "secpm"

    @property
    def encrypted(self) -> bool:
        return self is not Mode.UNSEC_PM

    @property
    def write_through(self) -> bool:
        return self in (Mode.SECPM_NO_CWR, Mode.SECPM)

    @property
    def cwr(self) -> bool:
        return self is Mode.SECPM


MODES = tuple(m.value for m in Mode)
WORKLOADS = ("array", "queue", "btree", "hashtable", "rbtree")
TXN_SIZES = (64, 256, 1024, 4096)

GIB = 1 << 30
MIB = 1 << 20
COUNTER_REGION_BASE = 1 << 40
# The NVM keeps one busy-until time per bank, so the bank count sizes a list.
MAX_BANKS = 1 << 16


@dataclass(frozen=True)
class Config:
    mode: str = Mode.SECPM.value
    workload: str = "btree"
    txn_size: int = 1024
    txn_count: int = 1000
    queue_len: int = 32
    cache_size: int = MIB
    cache_ways: int = 8
    cores: int = 1
    seed: int = 0

    cpu_ghz: float = 2.0
    cache_hit_cycles: int = 12
    # CPU-side cost of issuing a store + clwb, charged once per flush.
    flush_overhead_ns: float = 60.0
    # Compute time between transactions; the write queue drains in the
    # background during this window.
    txn_gap_ns: float = 300.0
    banks: int = 16

    footprint: int = 0          # 0 = workload default (1 GiB / 2 GiB)
    log_slots: int = 64
    use_register: bool = True

    t_rcd_ns: float = 48.0
    t_cl_ns: float = 15.0
    t_wr_ns: float = 300.0
    aes_ns: float = 40.0

    @property
    def cache_hit_ns(self) -> float:
        return self.cache_hit_cycles / self.cpu_ghz

    @property
    def read_ns(self) -> float:
        # Row activate + CAS.
        return self.t_rcd_ns + self.t_cl_ns

    @property
    def crash_consistent(self) -> bool:
        """Whether this configuration promises never to recover to a torn
        state: an unencrypted one does, and an encrypted one only if it
        writes counters through and stages counter and data in the register."""
        mode = Mode(self.mode)
        return not mode.encrypted or (mode.write_through and self.use_register)

    @functools.cached_property
    def data_bytes(self) -> int:
        """The workload footprint: ``footprint``, or 1 GiB for the array and
        queue workloads and 2 GiB for the others when it is 0."""
        if self.footprint:
            return self.footprint
        return GIB if self.workload in ("array", "queue") else 2 * GIB

    @functools.cached_property
    def slot_lines(self) -> int:
        """Lines in one undo-log slot: header, old values and end tag."""
        return self.txn_size // LINE + 2

    @functools.cached_property
    def log_headers(self) -> range:
        """The header address of every undo-log slot, in address order:
        each core's ``log_slots`` slots in turn, right above the footprint."""
        stride = self.slot_lines * LINE
        first = self.data_bytes
        return range(first, first + self.cores * self.log_slots * stride, stride)

    def log_slot_base(self, core: int, seq: int) -> int:
        """A core's seq-th transaction logs here; slots are reused in turn."""
        return self.log_headers[core * self.log_slots + seq % self.log_slots]

    @functools.cached_property
    def mapped_pages(self) -> int:
        """Pages of data and log, which the counter region maps."""
        return -(-self.log_headers.stop // PAGE)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.txn_size % LINE != 0 or self.txn_size <= 0:
            raise ValueError("txn_size must be a positive multiple of 64")
        if self.queue_len < 2:
            raise ValueError("queue_len must be at least 2")
        for name in ("cache_ways", "banks", "log_slots"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.banks > MAX_BANKS:
            raise ValueError(f"banks must be at most {MAX_BANKS}, not {self.banks}")
        if self.cache_size < LINE * self.cache_ways:
            raise ValueError("cache_size too small for one set")
        if self.cores < 1:
            raise ValueError(f"cores must be at least 1, not {self.cores}")
        if self.txn_count < 0:
            raise ValueError(f"txn_count must be non-negative, not {self.txn_count}")
        if not 0 < self.cpu_ghz < math.inf:
            raise ValueError("cpu_ghz must be positive and finite")
        for name in ("cache_hit_cycles", "flush_overhead_ns", "txn_gap_ns",
                     "t_rcd_ns", "t_cl_ns", "t_wr_ns", "aes_ns"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        # A hashtable bucket holds four transactions and a B-tree node is
        # one page or one transaction, whichever is larger, so a smaller or
        # unaligned footprint cannot hold them.
        least = 4 * self.txn_size
        if self.footprint and (self.footprint % PAGE or self.footprint < least):
            raise ValueError(f"footprint must be 0 or a multiple of {PAGE} of at"
                             f" least 4 * txn_size = {least}, not {self.footprint}")
        if self.data_bytes < least:
            raise ValueError(f"footprint = 0 gives {self.workload} its default"
                             f" {self.data_bytes} bytes, below 4 * txn_size ="
                             f" {least}")
        end = self.mapped_pages * PAGE
        if end > COUNTER_REGION_BASE:
            raise ValueError(f"footprint and cores * log_slots log slots end at"
                             f" {end:#x}, past the counter region at"
                             f" {COUNTER_REGION_BASE:#x}")


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Config)}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def parse_config(text: str) -> dict[str, object]:
    """The settings of a flat config text, typed; ``#`` starts a comment,
    and a later line for a key overrides an earlier one.  An error names
    its line: ``line N: ...``."""
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            settings[key] = parse_setting(key, value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return settings


def parse_setting(key: str, value: str) -> object:
    """The value of the setting ``key`` spelled ``value``, typed like the
    key's default."""
    if key not in _DEFAULTS:
        raise ValueError(f"unknown config key {key!r}")
    default = _DEFAULTS[key]
    if isinstance(default, bool):
        flag = _BOOLEANS.get(value.strip().lower())
        if flag is None:
            raise ValueError(f"{key} must be 1/0, true/false, yes/no or on/off,"
                             f" not {value!r}")
        return flag
    if isinstance(default, (int, float)):
        try:
            return type(default)(value)
        except ValueError:
            kind = "an integer" if isinstance(default, int) else "a number"
            raise ValueError(f"{key} must be {kind}, not {value!r}") from None
    return value

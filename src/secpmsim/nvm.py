"""Persistent storage array with per-bank occupancy timing.

The store is sparse (touched lines only).  Banks are line-interleaved:
bank = (address / 64) mod nbanks.  A write occupies its bank for tWR; a
read waits for the bank and then costs tRCD + tCL.  A crash snapshot is
the store with all queued entries applied in FIFO order (the ADR
guarantee) plus the re-encryption status register's value.  An
encrypted mode stores its data lines as ``crypto.Sealed`` values, which
stand for their ciphertext bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from secpmsim.config import LINE

if TYPE_CHECKING:
    from secpmsim.crypto import Sealed
    from secpmsim.write_queue import WriteQueue

ZERO_LINE = bytes(LINE)


class NvmDevice:
    def __init__(self, banks: int, t_wr_ns: float, read_ns: float):
        self.nbanks = banks
        self.t_wr_ns = t_wr_ns
        self.read_ns = read_ns
        self.busy_until = [0.0] * banks
        self.store: dict[int, bytes | Sealed] = {}
        self.writes = 0

    def bank(self, address: int) -> int:
        return (address // LINE) % self.nbanks

    def nvm_write(self, address: int, payload: bytes | Sealed, now: float
                  ) -> float:
        """Issue a line write on a free bank; returns completion time."""
        b = (address // LINE) % self.nbanks
        if self.busy_until[b] > now:
            raise RuntimeError("write issued to a busy bank")
        done = now + self.t_wr_ns
        self.busy_until[b] = done
        self.store[address] = payload
        self.writes += 1
        return done

    def nvm_read(self, address: int, now: float
                 ) -> tuple[bytes | Sealed, float]:
        """Read a line, waiting out any in-flight write on the bank."""
        b = address // LINE % self.nbanks  # self.bank(address), inlined
        busy = self.busy_until[b]
        start = busy if busy > now else now  # max(now, busy)
        done = start + self.read_ns
        self.busy_until[b] = done
        return self.store.get(address, ZERO_LINE), done


@dataclass(frozen=True, slots=True)
class Rsr:
    """Re-encryption status register: the page being moved, its old major
    counter and one done bit per line (4 + 8 + 8 = 20 bytes of
    battery-backed state that survives a crash).  An idle register is
    ``None``; each moved line replaces the value with one more done bit."""

    page_number: int
    old_major: int
    done_bits: int = 0

    def done(self, i: int) -> bool:
        return bool(self.done_bits >> i & 1)


@dataclass
class CrashSnapshot:
    """Durable image at a crash: NVM store + ADR-applied queue + RSR.

    Holds no CPU-cache, counter-cache, or staging-register state; those
    are volatile by design.
    """

    store: dict[int, bytes | Sealed]
    rsr: Rsr | None = None


def take_crash_snapshot(device: NvmDevice, queue: "WriteQueue",
                        rsr: Rsr | None = None) -> CrashSnapshot:
    store = dict(device.store)
    for entry in queue.entries:  # FIFO order: later entries overwrite
        store[entry.address] = entry.payload
    return CrashSnapshot(store, rsr)

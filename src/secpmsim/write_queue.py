"""Battery-backed (ADR) write queue with counter-write merging.

Entries carry a one-bit origin flag distinguishing data lines from counter
lines.  With merging enabled, an incoming counter entry removes the
co-resident counter entry for the same address: write-through ordering
guarantees the later counter line subsumes every earlier minor update, so
nothing is lost.  Data entries are never merged.  Draining is strict FIFO;
the head entry is only issued when its target bank is free.  The queue
indexes the newest entry per address, which serves both merging and the
forwarding of queued lines to reads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from secpmsim.crypto import Sealed
    from secpmsim.nvm import NvmDevice


class Origin(Enum):
    DATA = "data"
    COUNTER = "counter"


# The members as module globals: on the per-flush path a global load costs
# about a tenth of an Enum class attribute lookup.
DATA = Origin.DATA
COUNTER = Origin.COUNTER


@dataclass(eq=False, slots=True)
class WriteQueueEntry:
    address: int
    payload: bytes | Sealed
    origin: Origin


class WriteQueue:
    def __init__(self, capacity: int = 32, cwr_enabled: bool = False):
        self.capacity = capacity
        self.cwr_enabled = cwr_enabled
        self.entries: deque[WriteQueueEntry] = deque()
        # Newest queued entry per address.  Counter and data lines never
        # share an address, and with merging on at most one counter entry
        # per address is queued, so for a counter address this is the
        # entry a merge removes.
        self.latest: dict[int, WriteQueueEntry] = {}
        self.appended_data = 0
        self.appended_counter = 0
        self.merged = 0

    def __len__(self) -> int:
        return len(self.entries)

    def cwr_merge(self, incoming: WriteQueueEntry) -> int:
        """Remove the resident counter entry matching the incoming address.

        The no-two-counters-per-address invariant bounds removals to one,
        so the per-address index finds it without a scan.  Flushes to one
        page queue counter, data, counter, data, ..., so the resident entry
        is nearly always the one before the newest; it is taken from there
        without the scan from the head that ``deque.remove`` makes.
        """
        if incoming.origin is not COUNTER:
            raise ValueError("merge applies to counter entries only")
        if not self.cwr_enabled:
            raise ValueError("merging is disabled on this queue")
        resident = self.latest.pop(incoming.address, None)
        if resident is None:
            return 0
        entries = self.entries
        if len(entries) > 1 and entries[-2] is resident:
            del entries[-2]
        else:
            entries.remove(resident)
        self.merged += 1
        return 1

    def append(self, entry: WriteQueueEntry) -> None:
        if len(self.entries) >= self.capacity:
            raise RuntimeError("append on a full queue; caller must stall")
        if entry.origin is COUNTER:
            self.appended_counter += 1
            if self.cwr_enabled:
                self.cwr_merge(entry)
        else:
            self.appended_data += 1
        self.entries.append(entry)
        self.latest[entry.address] = entry

    def atomic_append_pair(self, counter_address: int, counter_image: bytes,
                           address: int, payload: bytes | Sealed) -> None:
        """Append a counter line and then its data line indivisibly.

        The caller guarantees two free slots; no crash point may be
        introduced between the two appends.
        """
        if len(self.entries) + 2 > self.capacity:
            raise RuntimeError("need two free slots for an atomic pair")
        self.append(WriteQueueEntry(counter_address, counter_image, COUNTER))
        self.append(WriteQueueEntry(address, payload, DATA))

    def drain_one(self, nvm: "NvmDevice", now: float) -> WriteQueueEntry:
        """Issue the head entry at ``now`` (FIFO only); its bank must be free."""
        head = self.entries[0]
        nvm.nvm_write(head.address, head.payload, now)
        self.entries.popleft()
        if self.latest.get(head.address) is head:
            del self.latest[head.address]
        return head

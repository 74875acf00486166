"""Durable transactions (undo logging) and the recovery procedure.

A transaction is three fenced epochs, each flushing its lines in order:
prepare (log header, old values, end tag), mutate (in-place updates),
commit (zero the end tag).  A log is complete iff its end tag matches the
transaction id; recovery abandons incomplete logs and undoes complete ones
in two fenced epochs (old values back in place; zero the end tag).  It
reads only the slots whose header line is in the durable image, never the
unwritten rest of the log region.

Log layout, per fixed-size slot:
  line 0              header: magic4 | nregions4 | txn_id8 | 3x(base8, nlines8)
  lines 1..N          old value of each write-set line, region order
  line N+1            end tag: magic8 | txn_id8 | zeros
Invalidation overwrites the end tag with a zero line.  A write set spans
at most three contiguous regions so the header stays one line.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from secpmsim.config import LINE, Config
from secpmsim.controller import Controller
from secpmsim.nvm import ZERO_LINE, CrashSnapshot

HEADER_MAGIC = b"SPLG"
END_MAGIC = b"SPLGEND1"
MAX_REGIONS = 3
_HEADER = struct.Struct(">4sIQ6Q")


@dataclass(slots=True)
class TxnDescriptor:
    txn_id: int
    write_set: list[tuple[int, bytes]]
    seq: int = 0  # the transaction's position on its core
    core: int = 0
    # The epoch that runs now: "prepare", "mutate" or "commit".
    stage: str = "prepare"

    def regions(self) -> list[tuple[int, int]]:
        """Group the write set into contiguous (base, nlines) runs."""
        runs: list[tuple[int, int]] = []
        base = count = 0
        for addr, _ in self.write_set:
            if count and addr == base + count * LINE:
                count += 1
            else:
                if count:
                    runs.append((base, count))
                base, count = addr, 1
        if count:
            runs.append((base, count))
        if len(runs) > MAX_REGIONS:
            raise ValueError(f"write set spans {len(runs)} regions (max {MAX_REGIONS})")
        return runs


def build_header(txn_id: int, regions: list[tuple[int, int]]) -> bytes:
    flat = [x for pair in regions for x in pair]
    flat += [0] * (2 * MAX_REGIONS - len(flat))
    return _HEADER.pack(HEADER_MAGIC, len(regions), txn_id, *flat)


def parse_header(raw: bytes) -> tuple[int, list[tuple[int, int]]] | None:
    """Returns (txn_id, regions) or None for a garbage/absent header."""
    if raw[:4] != HEADER_MAGIC:
        return None
    _, nregions, txn_id, *flat = _HEADER.unpack(raw)
    if not 1 <= nregions <= MAX_REGIONS:
        return None
    regions = []
    for i in range(nregions):
        base, nlines = flat[2 * i], flat[2 * i + 1]
        if nlines < 1 or base % LINE != 0:
            return None
        regions.append((base, nlines))
    return txn_id, regions


def build_end_tag(txn_id: int) -> bytes:
    return (END_MAGIC + txn_id.to_bytes(8, "big")).ljust(LINE, b"\0")


def end_tag_matches(raw: bytes, txn_id: int) -> bool:
    return raw == build_end_tag(txn_id)


def run_transaction(controller: Controller, txn: TxnDescriptor) -> Iterator[str]:
    """Execute one durable transaction, yielding after each flush so that
    multiple requesters can interleave at flush granularity."""
    cfg = controller.cfg
    base = cfg.log_slot_base(txn.core, txn.seq)
    write_set = txn.write_set
    regions = txn.regions()
    if len(write_set) > cfg.slot_lines - 2:
        raise ValueError("write set too large for the configured log slot")
    handle_flush = controller.handle_flush
    fence = controller.fence

    old_values = [controller.handle_read(addr) for addr, _ in write_set]
    txn.stage = "prepare"
    handle_flush(base, build_header(txn.txn_id, regions))
    yield "log_header"
    addr = base
    for old in old_values:
        addr += LINE
        handle_flush(addr, old)
        yield "log_old"
    end_addr = addr + LINE
    handle_flush(end_addr, build_end_tag(txn.txn_id))
    yield "log_end"
    fence()

    txn.stage = "mutate"
    for addr, line in write_set:
        handle_flush(addr, line)
        yield "data"
    fence()

    txn.stage = "commit"
    handle_flush(end_addr, ZERO_LINE)
    yield "invalidate"
    fence()


def execute(controller: Controller, txn: TxnDescriptor) -> None:
    for _ in run_transaction(controller, txn):
        pass


def written_headers(addresses: list[int], headers: range) -> list[int]:
    """The addresses in ``headers`` that the ascending list ``addresses``
    holds, in address order.

    One bisect per log slot that holds a line: the first stored address at
    or above a slot's base is its header if the slot has one.  The cost
    follows the stored lines, never the number of slots, and the sort is
    the snapshot's, made once per image (``CrashSnapshot.addresses``)."""
    start, stop, step = headers.start, headers.stop, headers.step
    found: list[int] = []
    i = bisect_left(addresses, start)
    n = len(addresses)
    while i < n:
        addr = addresses[i]
        if addr >= stop:
            break
        base = addr - (addr - start) % step
        if addr == base:
            found.append(addr)
        i = bisect_left(addresses, base + step, i + 1)
    return found


def recover(snapshot: CrashSnapshot, cfg: Config) -> tuple[Controller, list[int]]:
    """Rebuild a controller over the durable image, finish any in-flight
    page re-encryption, then undo complete logs in address order.

    Only slots whose header line the durable image holds are read: a slot
    never written holds no log, so recovery costs the same at any
    ``log_slots``.  The snapshot is left as it was, so recovering it again
    gives the same controller and reuses its sorted addresses."""
    ctrl = Controller.from_snapshot(cfg, snapshot)
    handle_read, handle_flush = ctrl.handle_read, ctrl.handle_flush
    undone: list[int] = []
    for base in written_headers(snapshot.addresses, cfg.log_headers):
        parsed = parse_header(handle_read(base))
        if parsed is None:
            continue
        txn_id, regions = parsed
        total = sum(n for _, n in regions)
        if total > cfg.slot_lines - 2:
            continue
        end_addr = base + (1 + total) * LINE
        if not end_tag_matches(handle_read(end_addr), txn_id):
            continue  # incomplete log: abandon
        targets = [rb + j * LINE for rb, n in regions for j in range(n)]
        for i, addr in enumerate(targets, 1):
            handle_flush(addr, handle_read(base + i * LINE))
        ctrl.fence()
        handle_flush(end_addr, ZERO_LINE)
        ctrl.fence()
        undone.append(txn_id)
    ctrl.drain_all()
    return ctrl, undone

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
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from secpmsim.config import LINE, Config
from secpmsim.controller import Controller
from secpmsim.nvm import ZERO_LINE, CrashSnapshot

HEADER_MAGIC = b"SPLG"
END_MAGIC = b"SPLGEND1"
MAX_REGIONS = 3


class Stage(Enum):
    PREPARE = "prepare"
    MUTATE = "mutate"
    COMMIT = "commit"
    DONE = "done"


@dataclass(slots=True)
class TxnDescriptor:
    txn_id: int
    write_set: list[tuple[int, bytes]]
    seq: int = 0  # the transaction's position on its core
    core: int = 0
    stage: Stage = field(default=Stage.PREPARE)

    def regions(self) -> list[tuple[int, int]]:
        """Group the write set into contiguous (base, nlines) runs."""
        runs: list[tuple[int, int]] = []
        for addr, _ in self.write_set:
            if runs and addr == runs[-1][0] + runs[-1][1] * LINE:
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((addr, 1))
        if len(runs) > MAX_REGIONS:
            raise ValueError(f"write set spans {len(runs)} regions (max {MAX_REGIONS})")
        return runs


def build_header(txn_id: int, regions: list[tuple[int, int]]) -> bytes:
    padded = regions + [(0, 0)] * (MAX_REGIONS - len(regions))
    flat = [x for pair in padded for x in pair]
    return HEADER_MAGIC + struct.pack(">IQ6Q", len(regions), txn_id, *flat)


def parse_header(raw: bytes) -> tuple[int, list[tuple[int, int]]] | None:
    """Returns (txn_id, regions) or None for a garbage/absent header."""
    if raw[:4] != HEADER_MAGIC:
        return None
    nregions, txn_id, *flat = struct.unpack(">IQ6Q", raw[4:])
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
    base = controller.cfg.log_slot_base(txn.core, txn.seq)
    regions = txn.regions()
    total = len(txn.write_set)
    if total > controller.cfg.slot_lines - 2:
        raise ValueError("write set too large for the configured log slot")

    old_values = [controller.handle_read(addr) for addr, _ in txn.write_set]
    end_addr = base + (1 + total) * LINE
    epochs = [
        (Stage.PREPARE,
         [(base, build_header(txn.txn_id, regions), "log_header")]
         + [(base + i * LINE, old, "log_old")
            for i, old in enumerate(old_values, 1)]
         + [(end_addr, build_end_tag(txn.txn_id), "log_end")]),
        (Stage.MUTATE, [(addr, line, "data") for addr, line in txn.write_set]),
        (Stage.COMMIT, [(end_addr, ZERO_LINE, "invalidate")]),
    ]
    for stage, flushes in epochs:
        txn.stage = stage
        for addr, line, label in flushes:
            controller.handle_flush(addr, line)
            yield label
        controller.fence()
    txn.stage = Stage.DONE


def execute(controller: Controller, txn: TxnDescriptor) -> None:
    for _ in run_transaction(controller, txn):
        pass


def recover(snapshot: CrashSnapshot, cfg: Config) -> tuple[Controller, list[int]]:
    """Rebuild a controller over the durable image, finish any in-flight
    page re-encryption, then undo complete logs in address order.

    Only slots whose header line the durable image holds are read: a slot
    never written holds no log, so recovery costs the same at any
    ``log_slots``."""
    ctrl = Controller.from_snapshot(cfg, snapshot)
    undone: list[int] = []
    headers = cfg.log_headers
    for base in sorted(a for a in snapshot.store if a in headers):
        parsed = parse_header(ctrl.handle_read(base))
        if parsed is None:
            continue
        txn_id, regions = parsed
        total = sum(n for _, n in regions)
        if total > cfg.slot_lines - 2:
            continue
        end_addr = base + (1 + total) * LINE
        if not end_tag_matches(ctrl.handle_read(end_addr), txn_id):
            continue  # incomplete log: abandon
        targets = [rb + j * LINE for rb, n in regions for j in range(n)]
        for i, addr in enumerate(targets, 1):
            ctrl.handle_flush(addr, ctrl.handle_read(base + i * LINE))
        ctrl.fence()
        ctrl.handle_flush(end_addr, ZERO_LINE)
        ctrl.fence()
        undone.append(txn_id)
    ctrl.drain_all()
    return ctrl, undone

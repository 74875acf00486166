"""Transaction-stream generators for the five evaluation workloads.

Each generator is a pure function of its spec (same seed, same stream) and
emits write sets of exactly ``txn_size`` bytes of line-aligned data inside
the workload footprint.  Structural addresses come from small host-side
shadow structures so the streams carry the locality each structure really
has: queue and B-tree traffic is clustered, while array swaps, hash-table
buckets, and red-black-tree nodes scatter across the footprint.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, TextIO

from secpmsim.config import LINE, PAGE, Config
from secpmsim.txn import TxnDescriptor

HASH_BUCKET_ITEMS = 4      # items per bucket


def _seed_int(*parts: object) -> int:
    # Stable across processes (unlike hash() of strings).
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str
    footprint: int
    txn_size: int
    txn_count: int
    seed: int = 0
    core: int = 0

    @classmethod
    def from_config(cls, cfg: Config, core: int = 0, seed: int | None = None
                    ) -> "WorkloadSpec":
        return cls(
            kind=cfg.workload,
            txn_size=cfg.txn_size,
            txn_count=cfg.txn_count,
            seed=cfg.seed if seed is None else seed,
            footprint=cfg.data_bytes,
            core=core,
        )


def _lines(rng: random.Random, regions: list[tuple[int, int]]
           ) -> list[tuple[int, bytes]]:
    out = []
    for base, nlines in regions:
        for i in range(nlines):
            out.append((base + i * LINE, rng.randbytes(LINE)))
    return out


def _array_regions(spec: WorkloadSpec, rng: random.Random
                   ) -> Iterable[list[tuple[int, int]]]:
    total_lines = spec.txn_size // LINE
    if total_lines == 1:
        slots = spec.footprint // LINE
        for _ in range(spec.txn_count):
            yield [(rng.randrange(slots) * LINE, 1)]
        return
    # Two entries, the first one line longer when the count is odd; entries
    # sit a first entry's length apart so neither runs into the next.
    half = total_lines // 2
    stride = total_lines - half
    entries = spec.footprint // (stride * LINE)
    for _ in range(spec.txn_count):
        a = rng.randrange(entries)
        b = rng.randrange(entries)
        while b == a:
            b = rng.randrange(entries)
        yield sorted([(a * stride * LINE, stride), (b * stride * LINE, half)])


def _queue_regions(spec: WorkloadSpec, rng: random.Random
                   ) -> Iterable[list[tuple[int, int]]]:
    nlines = spec.txn_size // LINE
    head = 0
    tail = spec.footprint // 2
    for _ in range(spec.txn_count):
        if rng.random() < 0.5:
            base, tail = tail, (tail + spec.txn_size) % spec.footprint
        else:
            base, head = head, (head + spec.txn_size) % spec.footprint
        end = base + spec.txn_size
        if end <= spec.footprint:
            yield [(base, nlines)]
        else:  # ring wrap
            first = (spec.footprint - base) // LINE
            yield [(base, first), (0, nlines - first)]


def _btree_regions(spec: WorkloadSpec, rng: random.Random
                   ) -> Iterable[list[tuple[int, int]]]:
    nlines = spec.txn_size // LINE
    node = max(PAGE, spec.txn_size)  # a node holds at least one transaction
    capacity = node // spec.txn_size
    max_nodes = spec.footprint // node
    # leaves: parallel lists of (separator key, node base, fill count)
    seps = [0.0]
    bases = [0]
    fills = [0]
    next_node = 1
    for _ in range(spec.txn_count):
        key = rng.random()
        idx = bisect_right(seps, key) - 1
        base, fill = bases[idx], fills[idx]
        yield [(base * node + (fill % capacity) * spec.txn_size, nlines)]
        fills[idx] = fill + 1
        if fills[idx] >= capacity and next_node < max_nodes:
            # split: the upper half of the key range moves to a new node
            seps.insert(idx + 1, seps[idx] + (key - seps[idx]) / 2 + 1e-12)
            bases.insert(idx + 1, next_node)
            fills[idx] = capacity // 2
            fills.insert(idx + 1, 0)
            next_node += 1


def _hashtable_regions(spec: WorkloadSpec, rng: random.Random
                       ) -> Iterable[list[tuple[int, int]]]:
    nlines = spec.txn_size // LINE
    bucket_bytes = HASH_BUCKET_ITEMS * spec.txn_size
    nbuckets = spec.footprint // bucket_bytes
    fill: dict[int, int] = {}
    for _ in range(spec.txn_count):
        b = rng.randrange(nbuckets)
        slot = fill.get(b, 0) % HASH_BUCKET_ITEMS
        fill[b] = slot + 1
        yield [(b * bucket_bytes + slot * spec.txn_size, nlines)]


def _rbtree_regions(spec: WorkloadSpec, rng: random.Random
                    ) -> Iterable[list[tuple[int, int]]]:
    nlines = spec.txn_size // LINE
    slots = spec.footprint // LINE
    for _ in range(spec.txn_count):
        touches = min(2, nlines - 1)  # rebalancing updates in other nodes
        item_lines = nlines - touches
        while True:
            base = rng.randrange(slots - item_lines) * LINE
            extra = [rng.randrange(slots) * LINE for _ in range(touches)]
            regions = sorted([(base, item_lines)] + [(a, 1) for a in extra])
            spans = [(b, b + n * LINE) for b, n in regions]
            if all(spans[i][1] <= spans[i + 1][0] for i in range(len(spans) - 1)):
                break
        yield regions


_GENERATORS = {
    "array": _array_regions,
    "queue": _queue_regions,
    "btree": _btree_regions,
    "hashtable": _hashtable_regions,
    "rbtree": _rbtree_regions,
}


def generate(spec: WorkloadSpec) -> list[TxnDescriptor]:
    if spec.kind not in _GENERATORS:
        raise ValueError(f"unknown workload {spec.kind!r}")
    if spec.txn_size % LINE or spec.txn_size <= 0:
        raise ValueError("txn_size must be a positive multiple of 64")
    rng = random.Random(_seed_int(spec.seed, spec.kind, spec.txn_size, spec.core))
    stream = []
    for i, regions in enumerate(_GENERATORS[spec.kind](spec, rng)):
        stream.append(
            TxnDescriptor(
                txn_id=spec.core * spec.txn_count + i,
                write_set=_lines(rng, regions),
                seq=i,
                core=spec.core,
            )
        )
    return stream


def export_trace(stream: list[TxnDescriptor], fh: TextIO) -> None:
    """`TXN <id> WRITE <hex-address> <len>` per write region."""
    for txn in stream:
        for base, nlines in txn.regions():
            fh.write(f"TXN {txn.txn_id} WRITE {base:#x} {nlines * LINE}\n")


def import_trace(fh: TextIO, footprint: int, max_lines: int, seed: int = 0
                 ) -> list[TxnDescriptor]:
    """Read a trace.  Every record must end inside ``footprint`` and carry
    a transaction id that fits the log header's 64 bits, no transaction may
    write more than ``max_lines`` lines, and a transaction's records may
    span at most the regions one log header holds."""
    by_txn: dict[int, TxnDescriptor] = {}
    for lineno, raw in enumerate(fh, 1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 5 or parts[0] != "TXN" or parts[2] != "WRITE":
            raise ValueError(f"trace line {lineno}: malformed record")
        try:
            txn_id, addr, size = int(parts[1]), int(parts[3], 16), int(parts[4])
        except ValueError:
            raise ValueError(f"trace line {lineno}: malformed record") from None
        if not 0 <= txn_id < 1 << 64:
            raise ValueError(f"trace line {lineno}: transaction id {parts[1]}"
                             f" is outside 0..2**64 - 1")
        if addr < 0 or addr % LINE:
            raise ValueError(
                f"trace line {lineno}: address {parts[3]} is not line-aligned")
        if size <= 0 or size % LINE:
            raise ValueError(
                f"trace line {lineno}: size {size} is not a positive multiple"
                f" of {LINE}")
        if addr + size > footprint:
            raise ValueError(
                f"trace line {lineno}: write {parts[3]} + {size} ends outside"
                f" data region [0x0, {footprint:#x})")
        txn = by_txn.get(txn_id)
        if txn is None:
            txn = by_txn[txn_id] = TxnDescriptor(txn_id, [], seq=len(by_txn))
        nlines = len(txn.write_set) + size // LINE
        if nlines > max_lines:
            raise ValueError(
                f"trace line {lineno}: transaction {txn_id} writes {nlines}"
                f" lines, more than the {max_lines} a log slot holds at"
                f" --txn-size {max_lines * LINE}")
        # Payloads are drawn once the whole trace is read.
        txn.write_set.extend((a, b"") for a in range(addr, addr + size, LINE))
        try:
            txn.regions()
        except ValueError as exc:
            raise ValueError(
                f"trace line {lineno}: transaction {txn_id}: {exc}") from None
    rng = random.Random(_seed_int("trace", seed))
    for txn in by_txn.values():
        txn.write_set = [(a, rng.randbytes(LINE)) for a, _ in txn.write_set]
    return list(by_txn.values())
